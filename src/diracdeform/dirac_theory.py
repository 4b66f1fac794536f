"""Linear Dirac structures on V + V*: what the CLI does not run, exact,
in the conventions of `dirac_linear`, and the admissible-function
algebra of an `ihs.IHSystem` (the Poisson bracket on polynomials whose
differential lies in the covector projection of its L).
`diracdeform.cli` does not import this module, so no job compiles it;
`test_acceptance` pins its claims."""

import math
from fractions import Fraction

from . import ratlin
from .dirac_linear import (
    LinearDirac,
    NotDirac,
    ShapeMismatch,
    _check_antisymmetric,
    flip,
    from_bivector,
    intersect_V,
    range_of,
)
from .ratlin import Subspace, frac, mat, mat_vec
from .superalg import SuperElement


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# symmetric bilinear forms
# ---------------------------------------------------------------------------

class DegeneratePairing(Exception):
    """Raised when an operation requires a nondegenerate bilinear form."""


def signature_normal_form(G):
    """Congruence-diagonalize a symmetric form over Q.

    Returns (n_pos, n_neg, n_zero, T) with T^T G T diagonal; the counts
    are the numbers of positive/negative/zero diagonal entries.
    """
    n = len(G)
    A = [[frac(G[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if A[i][j] != A[j][i]:
                raise ValueError("form is not symmetric")
    T = identity(n)

    def col_op(dst, src, f):
        # column_dst += f * column_src, applied to A (congruently) and T
        for i in range(n):
            A[i][dst] += f * A[i][src]
        for i in range(n):
            A[dst][i] += f * A[src][i]
        for i in range(n):
            T[i][dst] += f * T[i][src]

    def col_swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            A[i][r], A[j][r] = A[j][r], A[i][r]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]

    for k in range(n):
        if A[k][k] == 0:
            # find a later column with nonzero diagonal, or create one
            found = False
            for j in range(k + 1, n):
                if A[j][j] != 0:
                    col_swap(k, j)
                    found = True
                    break
            if not found:
                for j in range(k + 1, n):
                    if A[k][j] != 0:
                        col_op(k, j, Fraction(1))
                        found = True
                        break
            if not found:
                continue
        d = A[k][k]
        for j in range(k + 1, n):
            if A[k][j] != 0:
                col_op(j, k, -A[k][j] / d)
    pos = sum(1 for k in range(n) if A[k][k] > 0)
    neg = sum(1 for k in range(n) if A[k][k] < 0)
    zero = n - pos - neg
    return pos, neg, zero, T


def annihilator(W, pairing):
    """{v : pairing(v, w) = 0 for all w in W} for a nondegenerate pairing."""
    n = W.ambient_dim
    G = mat(pairing)
    if Subspace(n, G).dim < n:
        raise DegeneratePairing("pairing matrix is singular")
    return Subspace(n, [mat_vec(G, list(w)) for w in W.basis]).orthogonal()


# ---------------------------------------------------------------------------
# the paired space and standard structures
# ---------------------------------------------------------------------------


class NotIsotropic(Exception):
    pass


class NoRationalExtension(Exception):
    pass


class PairedSpace:
    """V + V* with its canonical split-signature pairing."""

    def __init__(self, n):
        self.n = n

    def pairing_matrix(self):
        n = self.n
        G = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            G[i][n + i] = Fraction(1)
            G[n + i][i] = Fraction(1)
        return G

    def pair(self, u, v):
        n = self.n
        return (sum(frac(u[n + i]) * frac(v[i]) for i in range(n))
                + sum(frac(v[n + i]) * frac(u[i]) for i in range(n)))

    def signature(self):
        pos, neg, zero, _ = signature_normal_form(self.pairing_matrix())
        return pos, neg, zero


def space_V(n):
    basis = [[Fraction(1 if j == i else 0) for j in range(2 * n)]
             for i in range(n)]
    return LinearDirac(n, Subspace(2 * n, basis))


def space_V_star(n):
    return flip(space_V(n))


def intersect_V_star(L):
    """L cap V*, as a subspace of V*."""
    return intersect_V(flip(L))


def from_R_Omega(R, Omega):
    """Dirac structure with range R and form Omega in R's canonical basis."""
    n = R.ambient_dim
    k = R.dim
    _check_antisymmetric(Omega)
    if len(Omega) != k:
        raise ShapeMismatch("form size does not match dim R")
    basis = []
    # covector eta_a with eta_a(r_b) = Omega[a][b]
    rows = [[frac(R.basis[b][i]) for i in range(n)] for b in range(k)]
    for a in range(k):
        status, eta = ratlin.solve(rows, [frac(Omega[a][b]) for b in range(k)])
        if status != "SOLUTION":
            raise ShapeMismatch("form is not representable on R")
        basis.append(list(R.basis[a]) + eta)
    for v in R.orthogonal().basis:
        basis.append([Fraction(0)] * n + list(v))
    return LinearDirac(n, Subspace(2 * n, basis))


def from_K_pi(K, corange, pi):
    """Dirac structure with kernel K and bivector pi on the corange basis:
    the flip of the structure with range `corange` and form pi.  K must be
    the annihilator of the corange."""
    L = flip(from_R_Omega(corange, pi))
    if intersect_V(L) != K:
        raise NotDirac("kernel is not the annihilator of the corange")
    return L


def lift(L, x):
    """Some eta with (x, eta) in L; requires x in the range of L."""
    n = L.n
    basis = L.subspace.basis
    status, c = ratlin.solve(ratlin.transpose([v[:n] for v in basis]),
                             list(x))
    if status != "SOLUTION":
        raise ValueError("vector is not in the range of the structure")
    return ratlin.mat_vec(ratlin.transpose([v[n:] for v in basis]), c)


def _range_form(L):
    """Range R of L and the form Omega[a][b] = eta_a(r_b) on its canonical
    basis, for any lifts (r_a, eta_a) in L (they differ by L cap V*,
    which annihilates R)."""
    R = range_of(L)
    etas = [lift(L, r) for r in R.basis]
    Omega = [[sum(e[i] * frac(r2[i]) for i in range(L.n))
              for r2 in R.basis] for e in etas]
    return R, Omega


def represent(L):
    """Both classifications of a linear Dirac structure.

    Returns a dict with:
      R      range subspace of V,
      Omega  antisymmetric dim(R) x dim(R) matrix in the canonical basis of R,
      K      kernel subspace L cap V,
      pi     antisymmetric matrix on the canonical basis of K-annihilator
             covectors (the corange of L), pi[a][b] = w_b(x_a) for lifts
             (x_a, w_a) in L: the range and form of flip(L).
    """
    R, Omega = _range_form(L)
    W, pi = _range_form(flip(L))
    return {"R": R, "Omega": Omega, "K": intersect_V(L), "corange": W,
            "pi": pi}


# ---------------------------------------------------------------------------
# Dirac maps
# ---------------------------------------------------------------------------

def _shape(phi):
    """(rows, columns) of a map matrix; a map with no rows has none."""
    return len(phi), len(phi[0]) if phi else 0


def _phi_t(phi, nw, nv):
    """The nv x nw transpose of the nw x nv matrix phi."""
    return [[frac(phi[j][i]) for j in range(nw)] for i in range(nv)]


def _push(phi, nw, nv, L):
    """{(phi x, eta) : (x, phi* eta) in L} for phi of shape nw x nv."""
    phit = _phi_t(phi, nw, nv)
    # unknowns (x in Q^nv, eta in Q^nw); condition C (x, phi^T eta) = 0
    # for the rows C with L = ker C
    rows = [list(c[:nv]) + [sum(c[nv + i] * phit[i][a] for i in range(nv))
                            for a in range(nw)]
            for c in L.subspace.orthogonal().basis]
    out = []
    for v in ratlin.kernel_basis(rows, nv + nw).basis:
        x, eta = v[:nv], v[nv:]
        px = [sum(frac(phi[j][i]) * x[i] for i in range(nv))
              for j in range(nw)]
        out.append(px + list(eta))
    return LinearDirac(nw, Subspace(2 * nw, out))


def forward_map(phi, L):
    """F_phi(L) = {(phi x, eta) : (x, phi* eta) in L} on the codomain.

    The domain is the space of L, so a map with no rows sends L to the
    structure on the zero space; every row must have L.n entries."""
    if any(len(row) != L.n for row in phi):
        raise ShapeMismatch("map domain does not match the structure")
    return _push(phi, len(phi), L.n, L)


def backward_map(phi, L):
    """B_phi(L) = {(x, phi* eta) : (phi x, eta) in L} on the domain: the
    flip of the forward image of flip(L) under phi*.

    The domain dimension is read from the rows of phi, so a map with no
    rows is ambiguous: [] is read as the map of the zero space, and the
    result lives on Q^0 whatever domain was meant."""
    nw, nv = _shape(phi)
    if L.n != nw:
        raise ShapeMismatch("map codomain does not match the structure")
    return flip(_push(_phi_t(phi, nw, nv), nv, nw, flip(L)))


# ---------------------------------------------------------------------------
# isotropic completions
# ---------------------------------------------------------------------------

def _form_value(G, u, v):
    n = len(G)
    return sum(frac(u[i]) * frac(G[i][j]) * frac(v[j])
               for i in range(n) for j in range(n))


def max_isotropic_dimension(G):
    pos, neg, zero, _ = signature_normal_form(G)
    if zero:
        raise ValueError("form is degenerate")
    return min(pos, neg)


def hyperbolic_completion(G, W):
    """Null partners v_1..v_k for an isotropic W, plus the complement U.

    Output satisfies (v_i, v_j) = 0, (w_i, v_j) = delta_ij, and
    V = span(w_i, v_i) perp-sum U with U the orthogonal complement.
    """
    n = len(G)
    for u in W.basis:
        for v in W.basis:
            if _form_value(G, u, v) != 0:
                raise NotIsotropic("subspace is not isotropic for the form")
    if Subspace(n, [list(r) for r in G]).dim < n:
        raise ValueError("form is degenerate")
    ws = [list(w) for w in W.basis]
    vs = []
    for i in range(len(ws)):
        # u with (w_j, u) = delta_ij and (v_l, u) = 0 for l < i
        rows = [[sum(frac(G[a][b]) * w[a] for a in range(n))
                 for b in range(n)] for w in ws]
        rows += [[sum(frac(G[a][b]) * v[a] for a in range(n))
                  for b in range(n)] for v in vs]
        rhs = [Fraction(1 if j == i else 0) for j in range(len(ws))]
        rhs += [Fraction(0)] * len(vs)
        status, u = ratlin.solve(rows, rhs)
        if status != "SOLUTION":
            raise ValueError("form is degenerate on the relevant subspace")
        alpha = -_form_value(G, u, u) / 2
        v = [alpha * ws[i][b] + u[b] for b in range(n)]
        vs.append(v)
    span = Subspace(n, ws + vs)
    U = annihilator(span, G)
    return vs, U


def _rational_sqrt(q):
    """Exact square root of a rational, or None if it is not a square."""
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if a * a != q.numerator or b * b != q.denominator:
        return None
    return Fraction(a, b)


def extend_isotropic(G, W):
    """Extend isotropic W to dimension min(p, q) when rational null
    vectors are available in the orthogonal complement."""
    n = len(G)
    target = max_isotropic_dimension(G)
    ws = [list(w) for w in W.basis]
    while len(ws) < target:
        span = Subspace(n, ws) if ws else Subspace(n, [])
        vs, U = hyperbolic_completion(G, span) if ws else ([], Subspace(
            n, identity(n)))
        # restricted form on U in its canonical basis
        k = U.dim
        Gu = [[_form_value(G, U.basis[a], U.basis[b]) for b in range(k)]
              for a in range(k)]
        pos, neg, zero, T = signature_normal_form(Gu)
        diag = []
        for c in range(k):
            vec = [sum(frac(T[r][c]) * U.basis[r][j] for r in range(k))
                   for j in range(n)]
            diag.append((_form_value(G, vec, vec), vec))
        found = None
        for a in range(k):
            da, va = diag[a]
            if da == 0:
                found = va
                break
            for b in range(a + 1, k):
                db, vb = diag[b]
                if db == 0:
                    continue
                if da * db < 0:
                    c2 = -da / db
                    c = _rational_sqrt(c2)
                    if c is not None:
                        found = [x + c * y for x, y in zip(va, vb)]
                        break
            if found is not None:
                break
        if found is None:
            raise NoRationalExtension(
                "no rational null vector found in the complement")
        ws.append(found)
    return Subspace(n, ws)


# ---------------------------------------------------------------------------
# gauge transforms and the canonical symplectic structure
# ---------------------------------------------------------------------------

def gauge_transform(B, L):
    """tau_B(x, eta) = (x, Bx + eta)."""
    _check_antisymmetric(B)
    n = L.n
    if len(B) != n:
        raise ShapeMismatch("gauge field size does not match")
    out = []
    for v in L.subspace.basis:
        x, eta = v[:n], v[n:]
        bx = [sum(frac(B[j][i]) * x[i] for i in range(n)) for j in range(n)]
        out.append(list(x) + [bx[j] + eta[j] for j in range(n)])
    return LinearDirac(n, Subspace(2 * n, out))


def canonical_symplectic(d):
    """Canonical structure on (q_1..q_d, p_1..p_d) with
    xdot = (dH/dp, -dH/dq)."""
    n = 2 * d
    pi = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d):
        pi[i][d + i] = Fraction(1)
        pi[d + i][i] = Fraction(-1)
    return from_bivector(pi)


# ---------------------------------------------------------------------------
# admissible functions of an implicit Hamiltonian system (exact)
# ---------------------------------------------------------------------------

class NotAdmissible(Exception):
    pass


def covector_projection(system):
    """pr_{V*}(L) as an exact Subspace of Q^n: the range of flip(L)."""
    return range_of(flip(system.L))


def kernel_directions(system):
    """L cap V: exact basis of the gauge directions."""
    return [list(v) for v in intersect_V(system.L).basis]


def _gradient_columns(system, f):
    """(m, [coefficient of monomial m in df/dx_i]) over the sorted
    monomials of df."""
    grads = [f.partial_even(v).terms for v in system.gens.even]
    for m in sorted({m for g in grads for m in g}):
        yield m, [g.get(m, Fraction(0)) for g in grads]


def is_admissible(system, f):
    """Exact coefficient-wise membership of df in pr_{V*}(L)."""
    W = covector_projection(system)
    return all(W.contains_vector(c) for _, c in _gradient_columns(system, f))


def hamiltonian_field(system, f):
    """A polynomial vector field X_f with (X_f, df) in L pointwise.

    The choice is unique up to kernel_directions(system); the induced
    bracket does not depend on it.  Raises NotAdmissible if df leaves
    the covector projection of L.
    """
    dual = flip(system.L)
    field = [{} for _ in range(system.n)]
    for m, c in _gradient_columns(system, f):
        try:
            u = lift(dual, c)
        except ValueError:
            raise NotAdmissible(
                "differential leaves the covector projection") from None
        for i, ui in enumerate(u):
            if ui:
                field[i][m] = ui
    return [SuperElement(system.gens, t) for t in field]


def admissible_bracket(system, f, g):
    """{f, g} = X_f(g), exact on rational polynomials."""
    if not is_admissible(system, g):
        raise NotAdmissible("second argument is not admissible")
    out = system.gens.zero()
    for Xi, v in zip(hamiltonian_field(system, f), system.gens.even):
        out = out + Xi * g.partial_even(v)
    return out
