"""The numpy float path that `ihs.IHSystem` replaced, kept as an
independent oracle: the constraint matrix is factored by one float SVD
(least-norm pseudo-inverse and gauge basis from the same rank decision),
and RK4 runs on numpy arrays.  Only the Hamiltonian's float evaluation
(`sys_.dH`, `sys_.energy`) is shared with the code under test."""

import math

import numpy as np

from diracdeform import ihs


def float_parts(sys_):
    """(V, M): the float arrays of the V and V* halves of the basis of L."""
    n = sys_.n
    basis = [list(map(float, row)) for row in sys_.L.subspace.basis]
    B = np.array(basis, dtype=float).reshape(len(basis), 2 * n)
    return B[:, :n], B[:, n:]


class NumpySolver:
    """The velocity solve of a system, factored once in floats."""

    def __init__(self, sys_):
        self.sys = sys_
        self.vec_part, self.cov_part = float_parts(sys_)
        M = self.cov_part
        u, s, vt = np.linalg.svd(M)
        rank = int(np.sum(s > max(M.shape) * np.finfo(float).eps
                          * (s[0] if len(s) else 1.0)))
        self.pinv = vt[:rank].T @ (u[:, :rank] / s[:rank]).T
        self.gauge = [vt[i] for i in range(rank, vt.shape[0])]

    def velocity_solve(self, x):
        """A NaN residual (a non-finite or overflowing state) counts as
        inadmissible."""
        sys_ = self.sys
        b = -self.vec_part @ np.array(sys_.dH(x))
        xdot = self.pinv @ b
        residual = float(np.abs(self.cov_part @ xdot - b).max(initial=0.0))
        scale = 1.0 + float(np.abs(b).max(initial=0.0))
        if not residual <= sys_.tol * scale:
            return ihs.VelocityResult("INADMISSIBLE", residual=residual)
        return ihs.VelocityResult("OK", xdot=xdot, gauge=self.gauge,
                                  residual=residual)

    def integrate(self, x0, steps, h=None):
        """RK4 on numpy arrays, with the checks of IHSystem.integrate."""
        sys_ = self.sys
        h = sys_.h if h is None else h
        x = np.array(x0, dtype=float)
        times = [0.0]
        points = [x.copy()]
        residuals = []
        max_res = 0.0

        def f(step, t, y):
            nonlocal max_res
            r = self.velocity_solve(y)
            if r.status != "OK":
                raise ihs.LeftAdmissibleSet(step, t, y)
            max_res = max(max_res, r.residual)
            return r

        def energy(step, t, y):
            e = sys_.energy(y)
            if not math.isfinite(e):
                raise ihs.LeftAdmissibleSet(step, t, y)
            return e

        e0 = energy(0, 0.0, x)
        energies = [e0]
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(steps):
                t = s * h
                r1 = f(s, t, x)
                residuals.append(r1.residual)
                k1 = r1.xdot
                k2 = f(s, t + h / 2, x + h / 2 * k1).xdot
                k3 = f(s, t + h / 2, x + h / 2 * k2).xdot
                k4 = f(s, t + h, x + h * k3).xdot
                x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                times.append((s + 1) * h)
                points.append(x.copy())
                energies.append(energy(s, (s + 1) * h, x))
            residuals.append(self.velocity_solve(x).residual)
        if not math.isfinite(residuals[-1]):
            raise ihs.LeftAdmissibleSet(steps, steps * h, x)
        drift = max(abs(e - e0) for e in energies)
        return ihs.Trajectory(times, points, energies, drift, max_res,
                              residuals)
