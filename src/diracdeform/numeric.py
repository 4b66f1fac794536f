"""Double-precision routines on split pairings and subspaces.

A compatible product structure and metric from a split pairing, frame
transport along a curve of projectors, orthogonal projectors and their
distance.  They use explicit tolerances and never feed back into the
exact state of `dirac_linear`.  This is the one module of the package
that imports numpy; the command-line front end never imports it.
"""

import numpy as np

from .dirac_linear import ShapeMismatch


class IllConditioned(Exception):
    pass


class StepTooLarge(Exception):
    pass


def numeric_compatible_structure(G, k, tol=1e-9):
    """Product structure J and positive metric g from a split pairing G
    and a positive metric seed k.

    J = |A|^{-1} A for A = k^{-1} G; returns (J, g) with J @ J = I,
    J.T @ G @ J = G and g = G @ J symmetric positive definite.
    """
    G = np.asarray(G, dtype=float)
    k = np.asarray(k, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n) or k.shape != (n, n):
        raise ShapeMismatch("matrices must be square of equal size")
    L = np.linalg.cholesky(k)
    Li = np.linalg.solve(L, np.eye(n))
    S = Li @ G @ Li.T
    S = (S + S.T) / 2
    w, Q = np.linalg.eigh(S)
    if np.min(np.abs(w)) < tol * np.max(np.abs(w)):
        raise IllConditioned("pairing is numerically degenerate")
    Jt = Q @ np.diag(np.sign(w)) @ Q.T
    J = Li.T @ Jt @ np.linalg.inv(Li.T)
    g = G @ J
    return J, g


def numeric_transport(P, t0, t1, h=1e-3, Pdot=None):
    """Transport frames along a projector curve by U' = [P', P] U, U0 = I.

    P is a callable t -> projector matrix (P(t) @ P(t) ~ P(t)); Pdot an
    optional callable for its derivative (central differences otherwise).
    Returns a list of (t, U) samples on the RK4 grid.
    """
    P0 = np.asarray(P(t0), dtype=float)
    n = P0.shape[0]
    if Pdot is None:
        d = max(h * 1e-2, 1e-7)

        def Pdot(t):
            return (np.asarray(P(t + d), float)
                    - np.asarray(P(t - d), float)) / (2 * d)

    def rhs(t, U):
        Pt = np.asarray(P(t), float)
        Pd = np.asarray(Pdot(t), float)
        return (Pd @ Pt - Pt @ Pd) @ U

    steps = int(round((t1 - t0) / h))
    t = t0
    U = np.eye(n)
    out = [(t, U.copy())]
    prev = P0
    for _ in range(steps):
        Pt = np.asarray(P(t + h), float)
        if np.linalg.norm(Pt - prev) > 0.5:
            raise StepTooLarge("projector moves too fast for the step size")
        k1 = rhs(t, U)
        k2 = rhs(t + h / 2, U + h / 2 * k1)
        k3 = rhs(t + h / 2, U + h / 2 * k2)
        k4 = rhs(t + h, U + h * k3)
        U = U + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        prev = Pt
        out.append((t, U.copy()))
    return out


def projector_onto(basis, n):
    """Float orthogonal projector onto the span of the given row vectors."""
    B = np.asarray(basis, dtype=float).reshape(-1, n)
    Q, _ = np.linalg.qr(B.T)
    r = np.linalg.matrix_rank(B)
    Q = Q[:, :r]
    return Q @ Q.T


def subspace_distance(P1, P2):
    """Operator-norm distance of two projectors (max principal angle sine)."""
    return float(np.linalg.norm(np.asarray(P1) - np.asarray(P2), 2))
