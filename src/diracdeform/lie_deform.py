"""Order-by-order formal deformation engine: one Maurer-Cartan extension
loop shared by Lie brackets, linear Poisson structures and Dirac graphs.

A deformation x_t = x_0 + t x_1 + ... solves a Maurer-Cartan equation
whose order-n part reads

    d x_n = R_n(x_1, ..., x_{n-1})

with d the differential of the order-0 structure.  For a Lie bracket mu_t
this is delta mu_n = 1/2 sum_{i=1}^{n-1} [mu_i, mu_{n-i}]_NR with delta
the Chevalley-Eilenberg differential of mu_0;
`algebroid.linear_poisson_deform` and `courant.deform_series_dirac`
supply the Schouten and Liu-Weinstein-Xu versions.  `mc_extend` is the one loop: given a
`Differential` (d on a finite basis of its domain) and R_n, it solves
each order exactly or certifies that R_n is not exact.  Every order
yields one `ObstructionCertificate`, which `verify()` re-checks from
scratch.
"""

from fractions import Fraction
from functools import cached_property, partial

from . import ratlin
from .multilinear import (
    MultiMap,
    _ce_differential,
    _delta_columns,
    _unit_cochains,
    is_lie,
    nr_bracket,
)

DEFAULT_ORDER = 8


class Order0NotLie(Exception):
    pass


class PreconditionMC(Exception):
    pass


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

    At order n the equation is d x_n = rhs(live, n), where live maps
    each order 1 <= i < n whose coefficient is nonzero to x_i, in
    increasing order.  It is kept as the orders are solved, so each
    coefficient is tested for zero once and a right-hand side visits
    only the nonzero ones.  The prefix is checked once, on entry
    (PreconditionMC); a right-hand side that is not d-closed means the
    order-0 structure is broken and raises `not_closed`, and a zero one
    is closed without applying d.  Each order is solved by `d.solve`,
    which answers R_n = 0 with x_n = 0 and no elimination: from a prefix
    of x_0 alone every R_n is 0, so such a run never applies d nor
    builds its basis or images, and its cost is linear in the order.
    Returns (coefficients, certificates) and stops at the first order
    that does not extend.
    """
    live = {}
    for j in range(1, len(prefix)):
        if not (d.op(prefix[j]) - rhs(live, j)).is_zero():
            raise PreconditionMC(f"deformation equation fails at order {j}")
        if not prefix[j].is_zero():
            live[j] = prefix[j]
    coeffs = list(prefix)
    certs = []
    while len(coeffs) <= order:
        n = len(coeffs)
        R = rhs(live, n)
        # d is linear: a zero R_n is closed without applying d
        if not R.is_zero() and not d.op(R).is_zero():
            raise not_closed(f"right-hand side of order {n} is not "
                             "closed; the order-0 structure is not "
                             "square-zero")
        cert = d.solve(n, R)
        certs.append(cert)
        if not cert.extends:
            break
        coeffs.append(cert.solution)
        if not cert.solution.is_zero():
            live[n] = cert.solution
    return coeffs, certs


# ---------------------------------------------------------------------------
# Lie brackets (Nijenhuis-Richardson bracket)
# ---------------------------------------------------------------------------

def _lie_differential(mu0, k):
    """CE differential of mu0 on the unit k-cochains, Jacobi checked once;
    the basis images are the columns of delta^k."""
    if not is_lie(mu0):
        raise Order0NotLie("order-0 term violates the Jacobi identity")
    return Differential(partial(_ce_differential, mu0),
                        partial(_unit_cochains, k, mu0.dim),
                        MultiMap.zero(k, mu0.dim), spans=True,
                        images=partial(_delta_columns, mu0.terms, mu0.dim, k))


def _lie_rhs(zero, live, n):
    """R_n = 1/2 sum_{i=1}^{n-1} [mu_i, mu_{n-i}]_NR over the pairs of
    nonzero coefficients in live (see mc_extend), starting from the zero
    3-cochain: from mu_0 alone no pair is bracketed."""
    R = zero
    for i, f in live.items():
        g = live.get(n - i)
        if g is not None:
            R = R + nr_bracket(f, g)
    return Fraction(1, 2) * R


def extend_series(prefix, order=DEFAULT_ORDER):
    """Extend a valid MC prefix up to the given truncation order.

    Returns (coefficients, certificates); stops early at the first
    obstruction."""
    if not prefix:
        raise ValueError("need at least mu_0")
    return mc_extend(_lie_differential(prefix[0], 2),
                     partial(_lie_rhs, MultiMap.zero(3, prefix[0].dim)),
                     prefix, order, Order0NotLie)
