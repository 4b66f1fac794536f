"""Order-by-order formal deformation engine: one Maurer-Cartan extension
loop shared by Lie brackets, linear Poisson structures and Dirac graphs.

A deformation x_t = x_0 + t x_1 + ... solves a Maurer-Cartan equation
whose order-n part reads

    d x_n = R_n(x_1, ..., x_{n-1})

with d the differential of the order-0 structure.  For a Lie bracket mu_t
this is delta mu_n = 1/2 sum_{i=1}^{n-1} [mu_i, mu_{n-i}]_NR with delta
the Chevalley-Eilenberg differential of mu_0; `linear_poisson_deform`
and `courant.deform_series_dirac` supply the Schouten and
Liu-Weinstein-Xu versions.  `mc_extend` is the one loop: given a
`Differential` (d on a finite basis of its domain) and R_n, it solves
each order exactly or certifies that R_n is not exact.  Every order
yields one `ObstructionCertificate`, which `verify()` re-checks from
scratch.
"""

import itertools
from fractions import Fraction
from functools import cached_property, partial

from . import ratlin
from .multilinear import (
    MultiMap,
    _ce_differential,
    _delta_columns,
    _unit_cochains,
    _zvec,
    cohomology,
    is_lie,
    multivector_generators,
    nr_bracket,
    nr_diamond,
)
from .brackets import SCHOUTEN, BracketContext
from .superalg import NotHomogeneous, euler_weight

DEFAULT_ORDER = 8


class Order0NotLie(Exception):
    pass


class PreconditionMC(Exception):
    pass


class NotInvertible(Exception):
    pass


# ---------------------------------------------------------------------------
# formal power series
# ---------------------------------------------------------------------------

class FormalSeries:
    """Truncated formal power series a_0 + t a_1 + ... + t^N a_N with
    coefficients in any additive space; products are Cauchy convolutions
    against a caller-supplied bilinear multiplication."""

    __slots__ = ("order", "coeffs", "zero")

    def __init__(self, order, coeffs, zero):
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation order")
        while len(coeffs) < order + 1:
            coeffs.append(zero)
        self.order = order
        self.coeffs = coeffs
        self.zero = zero

    def __getitem__(self, k):
        if 0 <= k <= self.order:
            return self.coeffs[k]
        return self.zero

    def __eq__(self, other):
        return (isinstance(other, FormalSeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __add__(self, other):
        n = min(self.order, other.order)
        return FormalSeries(n, [self[k] + other[k] for k in range(n + 1)],
                            self.zero)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return FormalSeries(n, [self[k] - other[k] for k in range(n + 1)],
                            self.zero)

    def __neg__(self):
        return FormalSeries(self.order, [-c for c in self.coeffs], self.zero)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return FormalSeries(self.order,
                            [scalar * c for c in self.coeffs], self.zero)

    def convolve(self, other, mul, zero=None):
        """Cauchy product using the bilinear multiplication mul."""
        n = min(self.order, other.order)
        if zero is None:
            zero = self.zero
        out = []
        for k in range(n + 1):
            acc = zero
            for i in range(k + 1):
                acc = acc + mul(self[i], other[k - i])
            out.append(acc)
        return FormalSeries(n, out, zero)

    def shift(self, j):
        """Multiply by t^j."""
        coeffs = [self.zero] * j + self.coeffs
        return FormalSeries(self.order, coeffs[:self.order + 1], self.zero)

    def is_zero(self):
        return all(_coeff_is_zero(c) for c in self.coeffs)


def _coeff_is_zero(c):
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


def series_exponential(a, mul, unit):
    """exp of a series whose constant term vanishes."""
    if not _coeff_is_zero(a[0]):
        raise ValueError("exp needs a series starting at order >= 1")
    out = FormalSeries(a.order, [unit], a.zero)
    power = FormalSeries(a.order, [unit], a.zero)
    fact = 1
    for j in range(1, a.order + 1):
        power = power.convolve(a, mul)
        fact *= j
        out = out + power.scale(Fraction(1, fact))
    return out


def series_logarithm(a, mul, unit):
    """ln of a series with constant term equal to the unit."""
    if not _coeff_is_zero(a[0] - unit):
        raise ValueError("ln needs a series with unit constant term")
    b = a - FormalSeries(a.order, [unit], a.zero)
    out = FormalSeries(a.order, [], a.zero)
    power = FormalSeries(a.order, [unit], a.zero)
    for j in range(1, a.order + 1):
        power = power.convolve(b, mul)
        out = out + power.scale(Fraction((-1) ** (j + 1), j))
    return out


# ---------------------------------------------------------------------------
# Maurer-Cartan extension: one loop, one certificate
# ---------------------------------------------------------------------------

class Differential:
    """A linear operator d given on a finite basis of its domain.

    `spans` says whether the basis spans the whole domain: only then does
    a failed solve certify an obstruction rather than the absence of a
    solution inside the span.  `basis` and `images`, the nonzero
    coordinates of op(b) for each basis element b, are passed as
    callables and built on first use; `images` defaults to op on each
    basis element.  A zero right-hand side is solved by zero without
    either, so an extension whose every R_n is 0 builds neither: the
    first need is a nonzero R_n, a nonzero solution coordinate or a
    witness to verify.
    """

    def __init__(self, op, basis, zero, spans, images=None):
        self.op = op
        self.zero = zero
        self.spans = spans
        self._make_basis = basis
        self._make_images = images

    @cached_property
    def basis(self):
        return self._make_basis()

    @cached_property
    def images(self):
        if self._make_images is None:
            return [self.op(b).terms for b in self.basis]
        return self._make_images()

    def solve(self, order, R):
        """Certificate of d x = R: a solution over the basis, or a
        witness y, a dict keyed like `terms`, with y^T d = 0 and
        y^T R != 0.  R = 0 gives x = 0 with no elimination: in the
        reduced echelon form of [M | 0] every pivot coordinate is 0, and
        the free coordinates are set to 0."""
        if R.is_zero():
            return ObstructionCertificate(self, order, R, solution=self.zero)
        status, v = ratlin.solve_sparse(self.images, R.terms)
        if status != "SOLUTION":
            return ObstructionCertificate(self, order, R, witness=v)
        x = self.zero
        for coeff, elt in zip(v, self.basis):
            if coeff:
                x = x + coeff * elt
        return ObstructionCertificate(self, order, R, solution=x)


class ObstructionCertificate:
    """Outcome of one extension order: the closed right-hand side R_n
    (`cocycle`) together with either a solution x_n of d x_n = R_n or an
    inconsistency witness proving that no x_n in the span of the basis of
    d solves it.

    `status` is "EXTENDS", "OBSTRUCTED" (the basis spans the domain, so
    R_n is a certified nonzero cohomology class) or
    "NO_SOLUTION_UP_TO_DEGREE" (the basis is a truncated one).
    """

    def __init__(self, differential, order, cocycle, solution=None,
                 witness=None):
        if (solution is None) == (witness is None):
            raise ValueError("exactly one of solution/witness required")
        self.differential = differential
        self.order = order
        self.cocycle = cocycle
        self.solution = solution
        self.witness = witness

    @property
    def extends(self):
        return self.solution is not None

    @property
    def status(self):
        if self.extends:
            return "EXTENDS"
        return "OBSTRUCTED" if self.differential.spans \
            else "NO_SOLUTION_UP_TO_DEGREE"

    def verify(self):
        """Re-check the stored evidence from scratch: d R = 0, and
        d x = R for a solution, or y^T d = 0 and y^T R != 0 for a
        witness y on freshly computed basis images."""
        op = self.differential.op
        if not op(self.cocycle).is_zero():
            return False
        if self.solution is not None:
            return (op(self.solution) - self.cocycle).is_zero()
        y = self.witness

        def pair(terms):
            return sum(v * y.get(key, 0) for key, v in terms.items())

        return (all(pair(op(b).terms) == 0 for b in self.differential.basis)
                and pair(self.cocycle.terms) != 0)


def mc_extend(d, rhs, prefix, order, not_closed):
    """Extend the coefficients x_0..x_{N-1} in `prefix` order by order up
    to the truncation `order`.

    At order n the equation is d x_n = rhs(coeffs[:n], n).  The prefix
    is checked once, on entry (PreconditionMC); a right-hand side that is
    not d-closed means the order-0 structure is broken and raises
    `not_closed`.  Each order is solved by `d.solve`, which answers
    R_n = 0 with x_n = 0 and no elimination: from a prefix of x_0 alone
    every R_n is 0, so such a run never builds d's basis or images.
    Returns (coefficients, certificates) and stops at the first order
    that does not extend.
    """
    for j in range(1, len(prefix)):
        if not (d.op(prefix[j]) - rhs(prefix[:j], j)).is_zero():
            raise PreconditionMC(f"deformation equation fails at order {j}")
    coeffs = list(prefix)
    certs = []
    while len(coeffs) <= order:
        n = len(coeffs)
        R = rhs(coeffs, n)
        if not d.op(R).is_zero():
            raise not_closed(f"right-hand side of order {n} is not "
                             "closed; the order-0 structure is not "
                             "square-zero")
        cert = d.solve(n, R)
        certs.append(cert)
        if not cert.extends:
            break
        coeffs.append(cert.solution)
    return coeffs, certs


# ---------------------------------------------------------------------------
# linear-map series helpers (arity-1 MultiMaps)
# ---------------------------------------------------------------------------

def identity_map(dim):
    return MultiMap(1, dim, {(i,): tuple(Fraction(1) if t == i else 0
                                         for t in range(dim))
                             for i in range(dim)})


def invert_series(phi, dim):
    """Inverse of a linear-map series with invertible leading term (the
    engine requires phi_0 = id)."""
    if phi[0] != identity_map(dim):
        raise NotInvertible("series must start at the identity")
    inv = [identity_map(dim)]
    for k in range(1, phi.order + 1):
        acc = MultiMap.zero(1, dim)
        for i in range(1, k + 1):
            acc = acc + nr_diamond(phi[i], inv[k - i])
        inv.append(-acc)
    return FormalSeries(phi.order, inv, MultiMap.zero(1, dim))


def _pre_compose2(f, phi_a, phi_b):
    """f(phi_a x, phi_b y) antisymmetrized, for a 2-ary MultiMap f."""
    dim = f.dim
    c = {}
    for a, b in itertools.combinations(range(dim), 2):
        va = phi_a.eval_indices((a,))
        vb = phi_b.eval_indices((b,))
        out = list(_zvec(dim))
        for i, ca in enumerate(va):
            if ca == 0:
                continue
            for j, cb in enumerate(vb):
                if cb == 0:
                    continue
                val = f.eval_indices((i, j))
                for t in range(dim):
                    out[t] += ca * cb * val[t]
        if any(out):
            c[(a, b)] = tuple(out)
    return MultiMap(2, dim, c)


# ---------------------------------------------------------------------------
# Lie brackets (Nijenhuis-Richardson bracket)
# ---------------------------------------------------------------------------

def mc_residual_lie(mu_series):
    """Per-order residuals of [mu_t, mu_t]_NR; the order-0 coefficient
    must be a Lie structure."""
    mu0 = mu_series[0]
    if not is_lie(mu0):
        raise Order0NotLie("order-0 term violates the Jacobi identity")
    return mu_series.convolve(mu_series, nr_bracket,
                              MultiMap.zero(3, mu0.dim))


def _lie_differential(mu0, k):
    """CE differential of mu0 on the unit k-cochains, Jacobi checked once;
    the basis images are the columns of delta^k."""
    if not is_lie(mu0):
        raise Order0NotLie("order-0 term violates the Jacobi identity")
    return Differential(partial(_ce_differential, mu0),
                        partial(_unit_cochains, k, mu0.dim),
                        MultiMap.zero(k, mu0.dim), spans=True,
                        images=partial(_delta_columns, mu0, k))


def _lie_rhs(coeffs, n):
    """R_n = 1/2 sum_{i=1}^{n-1} [mu_i, mu_{n-i}]_NR."""
    R = MultiMap.zero(3, coeffs[0].dim)
    for i in range(1, n):
        R = R + nr_bracket(coeffs[i], coeffs[n - i])
    return Fraction(1, 2) * R


def extend_one_order(prefix):
    """Given mu_0..mu_{k-1} satisfying MC through order k-1, solve for
    mu_k or certify the obstruction class."""
    return extend_series(prefix, len(prefix))[1][-1]


def extend_series(prefix, order=DEFAULT_ORDER):
    """Extend a valid MC prefix up to the given truncation order.

    Returns (coefficients, certificates); stops early at the first
    obstruction."""
    if not prefix:
        raise ValueError("need at least mu_0")
    return mc_extend(_lie_differential(prefix[0], 2), _lie_rhs, prefix,
                     order, Order0NotLie)


def apply_equivalence(phi_series, mu_series):
    """mu'_t(x, y) = phi_t^{-1}(mu_t(phi_t x, phi_t y))."""
    dim = mu_series[0].dim
    inv = invert_series(phi_series, dim)
    n = min(phi_series.order, mu_series.order)
    out = []
    for kk in range(n + 1):
        acc = MultiMap.zero(2, dim)
        for a in range(kk + 1):
            for b2 in range(kk - a + 1):
                c = kk - a - b2
                inner = _pre_compose2(mu_series[a], phi_series[b2],
                                      phi_series[c])
                acc = acc + inner
        out.append(acc)
    pre = FormalSeries(n, out, MultiMap.zero(2, dim))
    return inv.convolve(pre, nr_diamond, MultiMap.zero(2, dim))


def gerstenhaber_normalize(mu_series, order):
    """If mu_order is exact, return (phi_series, normalized series) with
    the order-n term removed; otherwise return None."""
    mu0 = mu_series[0]
    dim = mu0.dim
    cert = _lie_differential(mu0, 1).solve(order, mu_series[order])
    if not cert.extends:
        return None
    phi_n = cert.solution
    coeffs = [identity_map(dim)]
    coeffs += [MultiMap.zero(1, dim)] * (order - 1)
    # mu'_1..: removing t^n mu_n needs phi_t = id - t^n phi_n since
    # mu'_n - mu_n = delta phi_n and [mu0, phi]_NR = delta phi here
    coeffs.append(-phi_n)
    phi = FormalSeries(mu_series.order, coeffs, MultiMap.zero(1, dim))
    return phi, apply_equivalence(phi, mu_series)


def rigidity_check(mu0):
    """("RIGID" | "NOT_RIGID", dim H^2)."""
    h2, _ = cohomology(mu0, 2)
    return ("RIGID" if h2 == 0 else "NOT_RIGID", h2)


# ---------------------------------------------------------------------------
# linear-Poisson mirror
# ---------------------------------------------------------------------------

def poisson_context(k):
    """Schouten context on the dual of a k-dimensional Lie algebra
    (point base: coordinates v_a with conjugate odd symbols vh_a)."""
    gens = multivector_generators(0, k)
    ctx = BracketContext(SCHOUTEN, gens,
                         conjugate={i: i for i in range(k)})
    return gens, ctx


def _check_linear_bivector(gens, k, P):
    if P.is_zero():
        return
    for (e, o) in P.terms:
        if len(o) != 2:
            raise NotHomogeneous("expected a bivector")
    w = euler_weight(P, [f"v{a + 1}" for a in range(k)],
                     [f"vh{a + 1}" for a in range(k)])
    if w != -1:
        raise NotHomogeneous(f"fiber weight {w}, expected -1")


def _linear_multivector_basis(gens, k, deg):
    """Monomial basis of fiber-weight (1 - deg) multivectors with
    constant coefficients."""
    out = []
    for alpha in itertools.combinations(range(k), deg):
        for beta in range(k):
            out.append(gens.monomial(1, {f"v{beta + 1}": 1},
                                     [f"vh{a + 1}" for a in alpha]))
    return out


def linear_poisson_deform(prefix, k, order=None):
    """Order-by-order extension of a linear Poisson structure pi_t on
    the dual of a k-dimensional Lie algebra; mirrors extend_series.

    prefix is a list of SuperElements over multivector_generators(0, k),
    each a fiber-weight -1 bivector.  The order-n equation is
    [pi_0, pi_n] = -1/2 sum_{i=1}^{n-1} [pi_i, pi_{n-i}] (Schouten), solved
    over the constant-coefficient linear bivectors.  Returns
    (coefficients, certificates).
    """
    gens, ctx = poisson_context(k)
    for P in prefix:
        _check_linear_bivector(gens, k, P)
    pi0 = prefix[0]
    if not ctx.schouten(pi0, pi0).is_zero():
        raise Order0NotLie("pi_0 is not Poisson")
    d = Differential(partial(ctx.schouten, pi0),
                     partial(_linear_multivector_basis, gens, k, 2),
                     gens.zero(), spans=True)

    def rhs(coeffs, n):
        R = gens.zero()
        for i in range(1, n):
            R = R + ctx.schouten(coeffs[i], coeffs[n - i])
        return Fraction(-1, 2) * R

    return mc_extend(d, rhs, prefix,
                     DEFAULT_ORDER if order is None else order, Order0NotLie)


def poisson_apply_equivalence(pi_series, X_series, k):
    """pi'_t = exp(t ad_{X_t}) pi_t for X_t a series of fiber-weight-0
    vector fields; first-order relation pi'_1 - pi_1 = [pi_0, X_0]."""
    gens, ctx = poisson_context(k)
    n = pi_series.order

    def ad(P):
        # t [P, X_t], order-by-order
        out = []
        for kk in range(n + 1):
            acc = gens.zero()
            for i in range(kk):
                acc = acc + ctx.schouten(P[kk - 1 - i], X_series[i])
            out.append(acc)
        return FormalSeries(n, out, gens.zero())

    out = pi_series
    term = pi_series
    fact = 1
    for j in range(1, n + 1):
        term = ad(term)
        fact *= j
        out = out + term.scale(Fraction(1, fact))
    return out
