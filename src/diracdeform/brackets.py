"""Graded brackets on SuperElements.

Every bracket here is a biderivation, fixed by its values on pairs of
generators: {f, g} = sum_ab (f <-d_a) P_ab (d_b-> g), P_ab = {x_a, x_b},
with right derivatives of f and left derivatives of g.  A BracketContext
tabulates the nonzero P_ab once, in closed form.  `bracket` is
contract(right_partials(f), left_partials(g)), so a caller that brackets
the same operands many times can differentiate each of them once; it is
the one bracket body for all three kinds:

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
    GeneratorMismatch,
    GeneratorSet,
    SuperElement,
    add_product,
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


class _LeftPartials(dict):
    """The left derivatives d_b-> g of one element g, keyed by flat
    generator index b (see BracketContext._table); each is computed the
    first time it is read."""

    __slots__ = ("g", "n_even")

    def __init__(self, g):
        super().__init__()
        self.g, self.n_even = g, len(g.gens.even)

    def __missing__(self, b):
        n = self.n_even
        d = self[b] = self.g.partial_odd_at(b - n) if b >= n \
            else self.g.partial_even_at(b)
        return d


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
        """Rows [(a, [(b, P_ab)])] of the nonzero entries, keyed by flat
        generator index: even generator i is i, odd generator j is
        n_even + j.  A constant P_ab is a Fraction, or None for 1; the
        connection entries are elements."""
        gens, m, k, conn = self.gens, self.m, self.k, self.connection
        zero, n_even = gens.zero(), len(gens.even)
        rows = {}

        def g(b):
            return gens.gen(gens.odd[b - n_even])

        def put(a, b, value):
            if isinstance(value, int):
                value = None if value == 1 else Fraction(value)
            elif value.is_zero():
                return
            rows.setdefault(a, []).append((b, value))

        if self.kind == SCHOUTEN:
            for ci, oi in self.conjugate.items():
                put(n_even + oi, ci, 1)
                put(ci, n_even + oi, -1)
            return list(rows.items())
        q, p = range(m), range(m, 2 * m)
        lo, up = range(2 * m, 2 * m + k), range(2 * m + k, 2 * m + 2 * k)
        curv = {}   # (i, j), i < j: the p_i p_j entry; R_ji = -R_ij
        for a in range(k):
            put(lo[a], up[a], 1)
            put(up[a], lo[a], 1)
        for i in range(m):
            put(q[i], p[i], 1)
            put(p[i], q[i], -1)
            for a in range(k):
                rot_lo = sum((conn.christoffel(i, a, b) * g(lo[b])
                              for b in range(k)), zero)
                rot_up = sum((conn.christoffel(i, b, a) * g(up[b])
                              for b in range(k)), zero)
                put(p[i], lo[a], -rot_lo)
                put(lo[a], p[i], rot_lo)
                put(p[i], up[a], rot_up)
                put(up[a], p[i], -rot_up)
            for j in range(m):
                if j < i:
                    put(p[i], p[j], -curv[j, i])
                elif j > i:
                    curv[i, j] = sum(
                        (conn.curvature(i, j, b, a) * g(lo[a]) * g(up[b])
                         for a in range(k) for b in range(k)), zero)
                    put(p[i], p[j], curv[i, j])
        return list(rows.items())

    # -- the bracket ----------------------------------------------------

    def right_partials(self, f):
        """[f <-d_a for each table row a]."""
        self._check_gens(f)
        n = len(self.gens.even)
        return [f.partial_odd_at(a - n, False) if a >= n
                else f.partial_even_at(a) for a, _ in self._rows]

    def left_partials(self, g):
        """{b: d_b-> g} by flat generator index, each entry computed the
        first time it is read."""
        self._check_gens(g)
        return _LeftPartials(g)

    def _check_gens(self, f):
        """The partials are read by generator index, and contract sums
        their products unchecked: f must be over this context's set."""
        if f.gens is not self.gens and f.gens != self.gens:
            raise GeneratorMismatch("element over other generators than "
                                    "the context's")

    def contract(self, dF, dG):
        """sum_ab dF[a] P_ab dG[b] over the table, for dF = right_partials(f)
        and dG = left_partials(g): the bracket {f, g}.  dG[b] is read only
        for rows with dF[a] != 0."""
        terms = {}
        for df, (_, cols) in zip(dF, self._rows):
            if not df.terms:
                continue
            acc = None
            for b, coeff in cols:
                d = dG[b]
                if d.terms:
                    d = d if coeff is None else coeff * d
                    acc = d if acc is None else acc + d
            if acc is not None:
                add_product(terms, df.terms, acc.terms)
        return SuperElement(self.gens, terms)

    def bracket(self, f, g):
        """{f, g} = sum_ab (f <-d_a) P_ab (d_b-> g)."""
        return self.contract(self.right_partials(f), self.left_partials(g))

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


def derived_identity_failures(ctx, residual, elements):
    """Where the derived bracket [a, b] = {{a, theta}, b} and the pairing
    <a, b> = {a, b} of a chi-degree-3 charge theta with residual R =
    {theta, theta} break the Courant identities on the chi-degree-1
    `elements` e_0, e_1, ...:

    * "jacobi": [e1, [e2, e3]] - [[e1, e2], e3] - [e2, [e1, e3]], read
      as -1/2 {{{R, e1}, e2}, e3}; with R = 0 nothing is bracketed;
    * "invariance": [e1, <e2, e3>] - <[e1, e2], e3> - <e2, [e1, e3]> and
      "defect": [e1, e2] + [e2, e1] - {theta, <e1, e2>} are instances of
      the Jacobi identity of the bracket itself, so they vanish for
      every theta (Roytenberg 2002; Kosmann-Schwarzbach, Lett. Math.
      Phys. 69, 2004), and their lists are empty.

    Returns {name: [(*indices, value)]} over the nonzero values, indices
    in lexicographic order.
    """
    failures = {"jacobi": [], "invariance": [], "defect": []}
    if not residual.terms:
        return failures
    rp, lp, contract = ctx.right_partials, ctx.left_partials, ctx.contract
    n = len(elements)
    lE = [lp(e) for e in elements]
    d_R = rp(residual)
    dR1 = [rp(contract(d_R, lE[i])) for i in range(n)]
    minus_half = Fraction(-1, 2)
    jac = failures["jacobi"]
    for i1 in range(n):
        for i2 in range(n):
            dR2 = rp(contract(dR1[i1], lE[i2]))
            for i3 in range(n):
                j = contract(dR2, lE[i3])
                if j.terms:
                    jac.append((i1, i2, i3, minus_half * j))
    return failures


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
