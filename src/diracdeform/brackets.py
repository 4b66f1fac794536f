"""Graded brackets on SuperElements.

Every bracket here is a biderivation, fixed by its values on pairs of
generators: {f, g} = sum_ab (f <-d_a) P_ab (d_b-> g), P_ab = {x_a, x_b},
with right derivatives of f and left derivatives of g.  A BracketContext
tabulates the nonzero P_ab once, in closed form, and `bracket` is the
one bracket body for all three kinds:

* SCHOUTEN - the odd Poisson bracket on conjugate pairs (coordinate c,
  odd symbol dc for d/dc): {dc, c} = 1, {c, dc} = -1.  It realizes the
  Schouten bracket of multivector fields with polynomial coefficients.
* ROTHSTEIN - the even super-Poisson bracket on (q, p; lower/upper odd)
  twisted by a connection Gamma with curvature R: {q_i, p_j} = delta_ij,
  {a_alpha, a^beta} = delta_alpha^beta, {p_i, a_alpha} =
  -Gamma_{i alpha}^beta a_beta, {p_i, a^alpha} = Gamma_{i beta}^alpha
  a^beta, {p_i, p_j} = R^beta_{alpha i j} a_alpha a^beta.
* POINT_BIG - the same bracket over a point (no even generators, no
  connection): the big bracket on Lambda(V + V*).
"""

from fractions import Fraction

from .superalg import (
    GeneratorSet,
    SuperElement,
    bidegree,
    bidegree_components,
    phase_generators,
)


class WrongContext(Exception):
    pass


class MissingConnection(Exception):
    pass


class WrongDegree(Exception):
    pass


SCHOUTEN = "SCHOUTEN"
ROTHSTEIN = "ROTHSTEIN"
POINT_BIG = "POINT_BIG"


def schouten_generators(coords, prefix="d"):
    """Generators for multivector fields in the given coordinates: one
    even generator per coordinate plus a conjugate odd symbol `d<name>`
    standing for the coordinate derivation."""
    odd = [f"{prefix}{c}" for c in coords]
    return GeneratorSet(coords, odd)


class BracketContext:
    """Carrier for one of the three brackets.

    SCHOUTEN contexts pair even generator i with odd generator
    `conjugate[i]`, a bijection of range(n_even) onto range(n_odd);
    ROTHSTEIN/POINT_BIG contexts run over the phase generator layout
    (see superalg.phase_generators) with `m` base coordinates and `k`
    dual pairs of odd generators.  Malformed layouts raise ValueError.
    """

    def __init__(self, kind, gens, connection=None, conjugate=None,
                 m=None, k=None):
        self.kind, self.gens, self.connection = kind, gens, connection
        self.m, self.k = m, k
        n_even, n_odd = len(gens.even), len(gens.odd)
        if kind == SCHOUTEN:
            c = self.conjugate = dict(
                enumerate(range(n_even)) if conjugate is None else conjugate)
            if not (all(type(x) is int for x in (*c, *c.values()))
                    and sorted(c) == list(range(n_even))
                    and sorted(c.values()) == list(range(n_odd))):
                raise ValueError("conjugate map must be a bijection of "
                                 "range(n_even) onto range(n_odd)")
        elif kind == ROTHSTEIN:
            if connection is None:
                raise MissingConnection("ROTHSTEIN context needs ConnectionData")
            self.m, self.k = connection.m, connection.k
        elif kind == POINT_BIG:
            self.m, self.k = 0, n_odd // 2 if k is None else k
        else:
            raise ValueError(f"unknown bracket kind {kind!r}")
        if kind != SCHOUTEN and not (
                all(type(x) is int and x >= 0 for x in (self.m, self.k))
                and n_even == 2 * self.m and n_odd == 2 * self.k):
            raise ValueError(f"{kind} context needs 2m even and 2k odd "
                             f"generators, got {n_even} and {n_odd}")
        self._rows = self._table()

    # -- constructors ---------------------------------------------------

    @classmethod
    def schouten_on(cls, coords):
        gens = schouten_generators(coords)
        return cls(SCHOUTEN, gens)

    @classmethod
    def rothstein_on(cls, connection):
        return cls(ROTHSTEIN, connection.gens, connection=connection)

    @classmethod
    def point_big(cls, k):
        return cls(POINT_BIG, phase_generators(0, k), k=k)

    # -- the table P_ab = {x_a, x_b} ------------------------------------

    def _table(self):
        """Rows [(x_a, x_a is odd, [(x_b, x_b is odd, P_ab)])] of the
        nonzero entries.  A constant P_ab is a Fraction, or None for 1;
        the connection entries are elements."""
        gens, m, k, conn = self.gens, self.m, self.k, self.connection
        g, zero = gens.gen, gens.zero()
        rows = {}

        def put(a, b, value):
            if isinstance(value, int):
                value = None if value == 1 else Fraction(value)
            elif value.is_zero():
                return
            rows.setdefault(a, []).append(b + (value,))

        if self.kind == SCHOUTEN:
            for ci, oi in self.conjugate.items():
                x, dx = (gens.even[ci], False), (gens.odd[oi], True)
                put(dx, x, 1)
                put(x, dx, -1)
            return [a + (cols,) for a, cols in rows.items()]
        q = [(gens.even[i], False) for i in range(m)]
        p = [(gens.even[m + i], False) for i in range(m)]
        lo = [(gens.odd[a], True) for a in range(k)]
        up = [(gens.odd[k + a], True) for a in range(k)]
        for a in range(k):
            put(lo[a], up[a], 1)
            put(up[a], lo[a], 1)
        for i in range(m):
            put(q[i], p[i], 1)
            put(p[i], q[i], -1)
            for a in range(k):
                rot_lo = sum((conn.christoffel(i, a, b) * g(lo[b][0])
                              for b in range(k)), zero)
                rot_up = sum((conn.christoffel(i, b, a) * g(up[b][0])
                              for b in range(k)), zero)
                put(p[i], lo[a], -rot_lo)
                put(lo[a], p[i], rot_lo)
                put(p[i], up[a], rot_up)
                put(up[a], p[i], -rot_up)
            for j in range(m):
                if j != i:
                    put(p[i], p[j], sum(
                        (conn.curvature(i, j, b, a) * g(lo[a][0])
                         * g(up[b][0]) for a in range(k) for b in range(k)),
                        zero))
        return [a + (cols,) for a, cols in rows.items()]

    # -- the bracket ----------------------------------------------------

    def bracket(self, f, g):
        """{f, g} = sum_ab (f <-d_a) P_ab (d_b-> g): one right derivative
        of f per table row; each left derivative of g computed once."""
        terms, dg = {}, {}
        for a, a_odd, cols in self._rows if g.terms else ():
            df = f.partial_odd(a, "right") if a_odd else f.partial_even(a)
            if not df.terms:
                continue
            acc = None
            for b, b_odd, coeff in cols:
                d = dg.get(b)
                if d is None:
                    d = dg[b] = g.partial_odd(b, "left") if b_odd \
                        else g.partial_even(b)
                if d.terms:
                    d = d if coeff is None else coeff * d
                    acc = d if acc is None else acc + d
            if acc is None:
                continue
            for mono, c in (df * acc).terms.items():
                s = terms.get(mono, 0) + c
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return SuperElement(self.gens, terms)

    def schouten(self, P, Q):
        """The bracket of a SCHOUTEN context; graded antisymmetric with
        degree shift 1: [P,Q] = -(-1)^{(p-1)(q-1)} [Q,P]."""
        if self.kind != SCHOUTEN:
            raise WrongContext(self.kind)
        return self.bracket(P, Q)

    def rothstein(self, phi, psi):
        """The even super-Poisson bracket of a ROTHSTEIN/POINT_BIG
        context."""
        if self.kind not in (ROTHSTEIN, POINT_BIG):
            raise WrongContext(self.kind)
        return self.bracket(phi, psi)

    def darboux_momenta(self):
        """r_i = p_i - Gamma_{i alpha}^beta a^alpha a_beta."""
        if self.kind != ROTHSTEIN:
            raise WrongContext(self.kind)
        gens, m, k, g = self.gens, self.m, self.k, self.gens.gen
        return [g(gens.even[m + i]) - sum(
            (self.connection.christoffel(i, a, b) * g(gens.odd[k + a])
             * g(gens.odd[b]) for a in range(k) for b in range(k)),
            gens.zero()) for i in range(m)]


def derived_bracket(ctx, theta, x, y):
    """{{x, theta}, y}."""
    return ctx.bracket(ctx.bracket(x, theta), y)


def derived_diff(ctx, theta, x):
    """{theta, x}."""
    return ctx.bracket(theta, x)


def master_residuals(ctx, theta):
    """{Theta, Theta} and its five bidegree components.

    Theta must be chi-homogeneous of degree 3 (chi = epsilon + lambda);
    its bidegree parts are phi (0,3), mu (1,2), gamma (2,1), psi (3,0).
    The returned components sum to {Theta, Theta}/2.
    """
    gens = ctx.gens
    for mkey in theta.terms:
        eps, lam = bidegree(gens, mkey)
        if eps + lam != 3:
            raise WrongDegree(f"monomial of chi-degree {eps + lam}, expected 3")
    parts = bidegree_components(theta)
    phi = parts.get((0, 3), gens.zero())
    mu = parts.get((1, 2), gens.zero())
    gam = parts.get((2, 1), gens.zero())
    psi = parts.get((3, 0), gens.zero())
    br = ctx.bracket
    half = Fraction(1, 2)
    components = {
        (1, 3): half * br(mu, mu) + br(gam, phi),
        (3, 1): half * br(gam, gam) + br(mu, psi),
        (2, 2): br(mu, gam) + br(phi, psi),
        (0, 4): br(mu, phi),
        (4, 0): br(gam, psi),
    }
    return {"total": br(theta, theta), "components": components}
