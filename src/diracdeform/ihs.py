"""Implicit Hamiltonian systems over a constant linear Dirac structure.

A state x in R^n evolves subject to (xdot, dH(x)) in L, where L is a
maximal isotropic subspace of R^n + R^n*.  The structure is validated
exactly (over Q), and because it is constant the admissible dynamics is
a fixed linear map of the gradient: with V and M the vector and covector
halves of L's basis, the least-norm velocity is xdot = K grad H for
K = -M+ V, and the constraint residual M xdot - b (b = -V grad H) is
P grad H for P = (I - M M+) V.  K and P are computed once over Q, and
each row of K grad H and P grad H becomes one exact polynomial, rounded
to floats once.  When M has full rank, P = 0, so there are no
constraint rows and every residual is exactly 0.0.  Trajectories are
integrated with classical RK4 on plain Python floats that evaluate the
compiled field directly, so this module needs no numpy.  The
admissible-function algebra (the Poisson bracket on functions whose
differential lies in the covector projection of L) is computed exactly
on polynomials with rational coefficients.

Polynomials are SuperElements over the even generators x1..xn
(IHSystem.gens).
"""

import math
from fractions import Fraction

from . import ratlin
from .dirac_linear import (
    dirac_from_json,
    dirac_to_json,
    flip,
    from_bivector,
    intersect_V,
    lift,
    range_of,
)
from .jsonin import InputError, array, fields, rational
from .multilinear import base_gens
from .superalg import SuperElement


class NotAdmissible(Exception):
    pass


class LeftAdmissibleSet(Exception):
    def __init__(self, step, t, x):
        super().__init__(f"state left the admissible set at step {step}, "
                         f"t = {t}")
        self.step = step
        self.t = t
        self.x = x


class BadPolynomial(InputError):
    pass


def _float_terms(p):
    """Compile p to [(float coeff, ((index, power), ...))] in term order,
    so that float evaluation builds no Fraction."""
    return [(float(c), tuple((i, k) for i, k in enumerate(e) if k))
            for (e, _), c in p.terms.items()]


def _float_eval(terms, x):
    """Value of compiled terms at x, a list of floats; NaN if a power
    overflows.  Terms are summed in order so that trajectory reports do
    not change in the last bit."""
    total = 0.0
    try:
        for c, powers in terms:
            for i, k in powers:
                c *= x[i] ** k
            total += c
    except OverflowError:
        return math.nan
    return total


def _orthonormal_kernel(M):
    """Orthonormal float basis of the null space of M: the exact kernel
    basis made orthogonal over Q by Gram-Schmidt, then normalised in
    floats."""
    ortho = []
    for v in ratlin.kernel_basis(M).basis:
        w = list(v)
        for u, uu in ortho:
            c = sum(a * b for a, b in zip(w, u)) / uu
            w = [a - c * b for a, b in zip(w, u)]
        ortho.append((w, sum(a * a for a in w)))
    return [[float(a) / math.sqrt(uu) for a in w] for w, uu in ortho]


def _gradient_map(A, grads, gens):
    """The exact polynomials (A grad)_i of a rational matrix A applied
    to the gradient grads, summed coefficient by coefficient."""
    out = []
    for row in A:
        terms = {}
        for a, g in zip(row, grads):
            if a:
                for m, c in g.terms.items():
                    terms[m] = terms.get(m, 0) + a * c
        out.append(SuperElement(gens, {m: c for m, c in terms.items() if c}))
    return out


def _max_abs(v):
    """max |v_i| (0.0 for no entries); NaN if any entry is NaN, wherever
    it stands (max() keeps whichever of a NaN and a number came first)."""
    m = 0.0
    for a in v:
        if not abs(a) <= m:
            m = abs(a)
            if m != m:
                break
    return m


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------

class VelocityResult:
    """Outcome of one velocity solve.

    status is "OK" or "INADMISSIBLE"; for "OK", xdot is the least-norm
    particular solution, gauge an orthonormal basis of the solution
    freedom, residual the constraint residual of xdot.  Vectors are lists
    of floats.
    """

    def __init__(self, status, xdot=None, gauge=None, residual=None):
        self.status = status
        self.xdot = xdot
        self.gauge = gauge if gauge is not None else []
        self.residual = residual


class Trajectory:
    """RK4 trajectory.  max_residual is the largest stage residual;
    residuals[i] is the residual of the velocity solve at points[i]."""

    def __init__(self, times, points, energies, max_drift, max_residual,
                 residuals):
        self.times = times
        self.points = points
        self.energies = energies
        self.max_drift = max_drift
        self.max_residual = max_residual
        self.residuals = residuals


class IHSystem:
    """Constant linear Dirac structure + polynomial Hamiltonian.

    H is a SuperElement over base_gens(n), the generators x1..xn.
    """

    def __init__(self, L, H, h=1e-3, tol=1e-9):
        self.L = L            # exact, validated maximal isotropic
        self.n = n = L.n
        self.gens = base_gens(n)
        if H.gens != self.gens:
            raise BadPolynomial("H", "arity does not match n")
        self.H = H
        self.h = h
        self.tol = tol
        # L is constant, so the solve of M xdot = b is compiled once,
        # exactly: xdot = K grad H and the residual is P grad H
        V = [row[:n] for row in L.subspace.basis]
        M = [row[n:] for row in L.subspace.basis]
        pinv_V = ratlin.mat_mul(ratlin.pseudo_inverse(M), V)
        K = [[-a for a in row] for row in pinv_V]
        P = [[v - a for v, a in zip(*rows)]
             for rows in zip(V, ratlin.mat_mul(M, pinv_V))]
        grads = [H.partial_even(v) for v in self.gens.even]
        self.field = _gradient_map(K, grads, self.gens)
        self.residual_map = _gradient_map(P, grads, self.gens)
        self._field_terms = [_float_terms(p) for p in self.field]
        self._residual_terms = [_float_terms(p) for p in self.residual_map
                                if not p.is_zero()]
        # max |b| = max |V grad H| only scales the residual tolerance
        b = _gradient_map(V, grads, self.gens) if self._residual_terms else []
        self._b_terms = [_float_terms(p) for p in b if not p.is_zero()]
        self._gauge = _orthonormal_kernel(M)
        self._H_terms = _float_terms(H)
        self._dH_terms = [_float_terms(g) for g in grads]

    # -- dynamics -------------------------------------------------------

    def dH(self, x):
        x = list(map(float, x))
        return [_float_eval(t, x) for t in self._dH_terms]

    def energy(self, x):
        return _float_eval(self._H_terms, list(map(float, x)))

    def _solve(self, x):
        """(xdot, residual, admissible) at the float list x, as
        velocity_solve defines them."""
        xdot = [_float_eval(t, x) for t in self._field_terms]
        finite = all(map(math.isfinite, xdot))
        if not self._residual_terms:
            return xdot, (0.0 if finite else math.nan), finite
        residual = _max_abs([_float_eval(t, x)
                             for t in self._residual_terms])
        scale = _max_abs([_float_eval(t, x) for t in self._b_terms])
        if not (finite and math.isfinite(residual)
                and math.isfinite(scale)):
            return xdot, math.nan, False
        return xdot, residual, residual <= self.tol * (1.0 + scale)

    def velocity_solve(self, x):
        """Least-norm xdot with (xdot, dH(x)) in L, plus gauge basis.

        xdot = K grad H(x) and the residual max |M xdot - b| =
        max |P grad H(x)| are evaluated from the compiled exact
        polynomials.  The solve is admissible when the residual is at
        most tol (1 + max |b|) for b = -V grad H(x).  When P grad H is
        0, as always when M has full rank (P = 0), neither is evaluated
        and the residual is exactly 0.0.  A non-finite xdot, b or
        residual (a non-finite or overflowing state) is inadmissible,
        with a NaN residual."""
        xdot, residual, ok = self._solve(list(map(float, x)))
        if not ok:
            return VelocityResult("INADMISSIBLE", residual=residual)
        return VelocityResult("OK", xdot=xdot, gauge=self._gauge,
                              residual=residual)

    def energy_derivative(self, x):
        """dH/dt at the solve point: zero by isotropy whenever the
        solve succeeds."""
        r = self.velocity_solve(x)
        if r.status != "OK":
            return None
        return sum(a * v for a, v in zip(self.dH(x), r.xdot))

    def integrate(self, x0, steps, h=None):
        """RK4 trajectory on the compiled field xdot = K grad H; raises
        LeftAdmissibleSet if a stage leaves the admissible set (see
        velocity_solve) or the trajectory diverges (the energy of a point
        or the residual of the final point is not finite).  The k1 stage
        solves at the current point, so it supplies that point's
        residual; the final point gets one more solve.  Constraint rows
        are evaluated only when P grad H is not 0.  Float overflow in
        the RK4 arithmetic gives inf or NaN, which these checks report."""
        h = self.h if h is None else h
        h2, h6 = h / 2, h / 6
        x = [float(v) for v in x0]
        times = [0.0]
        points = [x]
        residuals = []
        max_res = 0.0
        solve = self._solve

        def f(step, t, y):
            nonlocal max_res
            xdot, residual, ok = solve(y)
            if not ok:
                raise LeftAdmissibleSet(step, t, y)
            max_res = max(max_res, residual)
            return xdot, residual

        def energy(step, t, y):
            e = self.energy(y)
            if not math.isfinite(e):
                raise LeftAdmissibleSet(step, t, y)
            return e

        e0 = energy(0, 0.0, x)
        energies = [e0]
        for s in range(steps):
            t = s * h
            k1, residual = f(s, t, x)
            residuals.append(residual)
            k2 = f(s, t + h2, [a + h2 * k for a, k in zip(x, k1)])[0]
            k3 = f(s, t + h2, [a + h2 * k for a, k in zip(x, k2)])[0]
            k4 = f(s, t + h, [a + h * k for a, k in zip(x, k3)])[0]
            x = [a + h6 * (p + 2 * q + 2 * r + u)
                 for a, p, q, r, u in zip(x, k1, k2, k3, k4)]
            times.append((s + 1) * h)
            points.append(x)
            energies.append(energy(s, (s + 1) * h, x))
        residuals.append(solve(x)[1])
        if not math.isfinite(residuals[-1]):
            raise LeftAdmissibleSet(steps, steps * h, x)
        drift = max(abs(e - e0) for e in energies)
        return Trajectory(times, points, energies, drift, max_res, residuals)

    # -- admissible-function algebra (exact) ----------------------------

    def covector_projection(self):
        """pr_{V*}(L) as an exact Subspace of Q^n: the range of flip(L)."""
        return range_of(flip(self.L))

    def kernel_directions(self):
        """L cap V: exact basis of the gauge directions."""
        return [list(v) for v in intersect_V(self.L).basis]

    def _gradient_columns(self, f):
        """(m, [coefficient of monomial m in df/dx_i]) over the sorted
        monomials of df."""
        grads = [f.partial_even(v).terms for v in self.gens.even]
        for m in sorted({m for g in grads for m in g}):
            yield m, [g.get(m, Fraction(0)) for g in grads]

    def is_admissible(self, f):
        """Exact coefficient-wise membership of df in pr_{V*}(L)."""
        W = self.covector_projection()
        return all(W.contains_vector(c)
                   for _, c in self._gradient_columns(f))

    def hamiltonian_field(self, f):
        """A polynomial vector field X_f with (X_f, df) in L pointwise.

        The choice is unique up to kernel_directions(); the induced
        bracket does not depend on it.  Raises NotAdmissible if df
        leaves the covector projection of L.
        """
        dual = flip(self.L)
        field = [{} for _ in range(self.n)]
        for m, c in self._gradient_columns(f):
            try:
                u = lift(dual, c)
            except ValueError:
                raise NotAdmissible(
                    "differential leaves the covector projection") from None
            for i, ui in enumerate(u):
                if ui:
                    field[i][m] = ui
        return [SuperElement(self.gens, t) for t in field]

    def admissible_bracket(self, f, g):
        """{f, g} = X_f(g), exact on rational polynomials."""
        if not self.is_admissible(g):
            raise NotAdmissible("second argument is not admissible")
        X = self.hamiltonian_field(f)
        out = self.gens.zero()
        for Xi, v in zip(X, self.gens.even):
            out = out + Xi * g.partial_even(v)
        return out


# ---------------------------------------------------------------------------
# Stock structures and serialization
# ---------------------------------------------------------------------------

def canonical_symplectic(d):
    """Canonical structure on (q_1..q_d, p_1..p_d) with
    xdot = (dH/dp, -dH/dq)."""
    n = 2 * d
    pi = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d):
        pi[i][d + i] = Fraction(1)
        pi[d + i][i] = Fraction(-1)
    return from_bivector(pi)


def system_to_json(sys_):
    return {
        "n": sys_.n,
        "L": dirac_to_json(sys_.L),
        "H": [[list(e), str(c)] for (e, _), c in sorted(sys_.H.terms.items())],
        "h": sys_.h,
        "tol": sys_.tol,
    }


def _positive_number(obj, key, default):
    """obj[key] (default if absent), which must be a finite number > 0."""
    v = obj.get(key, default)
    if type(v) not in (int, float) or not (math.isfinite(v) and v > 0):
        raise InputError(f"$.{key}", f"must be a finite number > 0: {v!r}")
    return v


def system_from_json(obj):
    """Inverse of system_to_json.  H is a list of [exponents, coeff]; a
    repeated exponent vector keeps its last coefficient.  Errors are
    InputErrors naming their JSON path."""
    fields(obj, "$", ("n", "L", "H"), ("h", "tol"))
    L = dirac_from_json(obj["L"], "$.L")
    n = obj["n"]
    if type(n) is not int or n != L.n:
        raise InputError("$.n", f"expected the integer $.L.n = {L.n}, "
                                f"got {n!r}")
    h = _positive_number(obj, "h", 1e-3)
    tol = _positive_number(obj, "tol", 1e-9)
    terms = {}
    for i, term in enumerate(array(obj["H"], "$.H")):
        at = f"$.H[{i}]"
        if not (type(term) is list and len(term) == 2
                and type(term[0]) is list and len(term[0]) == L.n
                and all(type(k) is int and k >= 0 for k in term[0])):
            raise BadPolynomial(at, f"expected [exponents, coeff] with "
                                    f"{L.n} natural exponents, got {term!r}")
        e, c = term
        coeff = rational(c, at)
        try:
            float(coeff * max(e + [1]))    # RK4 evaluates H and dH in floats
        except OverflowError as err:
            raise BadPolynomial(at, f"bad coefficient {c!r} ({err})")
        terms[(tuple(e), ())] = coeff
    H = SuperElement(base_gens(L.n), {m: c for m, c in terms.items() if c})
    try:
        return IHSystem(L, H, h=h, tol=tol)
    except OverflowError as err:
        raise InputError("$", f"the velocity solve compiled from L and H "
                              f"overflows a float ({err})")
