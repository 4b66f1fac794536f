import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracdeform.brackets import (
    POINT_BIG,
    ROTHSTEIN,
    SCHOUTEN,
    BracketContext,
    MissingConnection,
    WrongContext,
    WrongDegree,
    derived_bracket,
    derived_diff,
    master_residuals,
)
from diracdeform.superalg import (
    ConnectionData,
    GeneratorMismatch,
    GeneratorSet,
    SuperElement,
    phase_generators,
)

import bracket_oracles as oracle
from bracket_oracles import split_odd

# ---------------------------------------------------------------------
# Schouten bracket on polynomial multivector fields over Q^2 / Q^3
# ---------------------------------------------------------------------

SC = BracketContext.schouten_on(["x1", "x2", "x3"])
SG = SC.gens
PERM_GENS = GeneratorSet(["x", "y", "z"], ["dx", "dy", "dz"])


def sg(name):
    return SG.gen(name)


small_frac = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polys(gens, max_terms=3, max_pow=2):
    ne = len(gens.even)

    def build(draws):
        out = gens.zero()
        for coeff, evens in draws:
            term = gens.scalar(coeff)
            for i, p in enumerate(evens):
                term = term * gens.gen(gens.even[i]) ** p
            out = out + term
        return out

    term = st.tuples(small_frac,
                     st.lists(st.integers(0, max_pow), min_size=ne, max_size=ne))
    return st.lists(term, max_size=max_terms).map(build)


def vector_fields(gens):
    """Strategy for degree-1 fields sum_c f_c * d_c."""
    def build(coeffs):
        out = gens.zero()
        for name, f in zip(gens.odd, coeffs):
            out = out + f * gens.gen(name)
        return out
    return st.tuples(*[polys(gens, max_terms=2) for _ in gens.odd]).map(build)


def multivectors(gens, max_terms=3):
    no = len(gens.odd)

    def build(draws):
        out = gens.zero()
        for f, odds in draws:
            term = f
            for o in sorted(set(odds)):
                term = term * gens.gen(gens.odd[o])
            out = out + term
        return out

    term = st.tuples(polys(gens, max_terms=1),
                     st.lists(st.integers(0, no - 1), max_size=no))
    return st.lists(term, max_size=max_terms).map(build)


def vf_apply(X, f):
    """Apply a degree-1 field sum f_c d_c to a function."""
    out = f.gens.zero()
    for ci, oi in SC.conjugate.items():
        coeff = X.partial_odd(X.gens.odd[oi], "left")
        out = out + coeff * f.partial_even(f.gens.even[ci])
    return out


def vf_commutator(X, Y):
    out = X.gens.zero()
    for ci, oi in SC.conjugate.items():
        gc = Y.partial_odd(Y.gens.odd[oi], "left")
        fc = X.partial_odd(X.gens.odd[oi], "left")
        out = out + (vf_apply(X, gc) - vf_apply(Y, fc)) * X.gens.gen(X.gens.odd[oi])
    return out


def wedge(factors, gens):
    out = gens.one()
    for f in factors:
        out = out * f
    return out


def oracle_decomposable(Xs, Ys):
    """[X1^..^Xk, Y1^..^Yl] via pairwise commutators of the factors."""
    out = SG.zero()
    k, ell = len(Xs), len(Ys)
    for i in range(k):
        for j in range(ell):
            sign = (-1) ** ((i + 1) + (j + 1))
            rest = Xs[:i] + Xs[i + 1:] + Ys[:j] + Ys[j + 1:]
            out = out + sign * wedge([vf_commutator(Xs[i], Ys[j])] + rest, SG)
    return out


class TestSchouten:
    def test_function_function(self):
        f = sg("x1") * sg("x2")
        g = sg("x3") ** 2
        assert SC.schouten(f, g).is_zero()

    def test_commutator_of_derivations(self):
        # [d_{x1}, x1 d_{x2}] = d_{x2}
        X = sg("dx1")
        Y = sg("x1") * sg("dx2")
        assert SC.schouten(X, Y) == sg("dx2")

    def test_constant_bivector_self_bracket(self):
        pi = sg("dx1") * sg("dx2")
        assert SC.schouten(pi, pi).is_zero()

    def test_function_vs_decomposable(self):
        f = sg("x1") ** 2 * sg("x2")
        Xs = [sg("x2") * sg("dx1"), sg("x1") * sg("dx3")]
        P = wedge(Xs, SG)
        expect = SG.zero()
        for i in range(len(Xs)):
            rest = Xs[:i] + Xs[i + 1:]
            expect = expect + (-1) ** (i + 1) * vf_apply(Xs[i], f) * wedge(rest, SG)
        assert SC.schouten(f, P) == expect

    @given(st.lists(vector_fields(SG), min_size=1, max_size=2),
           st.lists(vector_fields(SG), min_size=1, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_decomposable_oracle(self, Xs, Ys):
        P = wedge(Xs, SG)
        Q = wedge(Ys, SG)
        assert SC.schouten(P, Q) == oracle_decomposable(Xs, Ys)

    @given(multivectors(SG), multivectors(SG))
    @settings(max_examples=30, deadline=None)
    def test_graded_antisymmetry(self, P, Q):
        for p, Pp in split_odd(P).items():
            for q, Qq in split_odd(Q).items():
                sign = (-1) ** ((p - 1) * (q - 1))
                assert SC.schouten(Pp, Qq) == -sign * SC.schouten(Qq, Pp)

    @given(multivectors(SG), multivectors(SG), multivectors(SG))
    @settings(max_examples=25, deadline=None)
    def test_super_leibniz(self, P, Q, R):
        for p, Pp in split_odd(P).items():
            for q, Qq in split_odd(Q).items():
                lhs = SC.schouten(Pp, Qq * R)
                rhs = (SC.schouten(Pp, Qq) * R
                       + (-1) ** ((p - 1) * q) * Qq * SC.schouten(Pp, R))
                assert lhs == rhs

    @given(multivectors(SG, 2), multivectors(SG, 2), multivectors(SG, 2))
    @settings(max_examples=20, deadline=None)
    def test_super_jacobi(self, P, Q, R):
        for p, Pp in split_odd(P).items():
            for q, Qq in split_odd(Q).items():
                lhs = SC.schouten(Pp, SC.schouten(Qq, R))
                rhs = (SC.schouten(SC.schouten(Pp, Qq), R)
                       + (-1) ** ((p - 1) * (q - 1))
                       * SC.schouten(Qq, SC.schouten(Pp, R)))
                assert lhs == rhs

    def test_wrong_context(self):
        ctx = BracketContext.point_big(1)
        with pytest.raises(WrongContext):
            ctx.schouten(ctx.gens.zero(), ctx.gens.zero())


# ---------------------------------------------------------------------
# Rothstein bracket
# ---------------------------------------------------------------------

def random_connection(seed, m=2, k=2, gens=None):
    rng = random.Random(seed)
    gens = gens or phase_generators(m, k)
    gamma = {}
    for i in range(m):
        for a in range(k):
            for b in range(k):
                c0 = Fraction(rng.randint(-2, 2))
                c1 = Fraction(rng.randint(-2, 2))
                q = gens.gen(gens.even[rng.randrange(m)])
                gamma[(i, a, b)] = gens.scalar(c0) + c1 * q
    return ConnectionData(gens, m, k, gamma)


def rothstein_ctx(seed=0, m=2, k=2):
    conn = random_connection(seed, m, k)
    return BracketContext.rothstein_on(conn)


def phase_elements(gens, max_terms=3):
    ne, no = len(gens.even), len(gens.odd)

    def build(draws):
        out = gens.zero()
        for coeff, evens, odds in draws:
            term = gens.scalar(coeff)
            for i, p in enumerate(evens):
                term = term * gens.gen(gens.even[i]) ** p
            for o in sorted(set(odds)):
                term = term * gens.gen(gens.odd[o])
            out = out + term
        return out

    term = st.tuples(small_frac,
                     st.lists(st.integers(0, 1), min_size=ne, max_size=ne),
                     st.lists(st.integers(0, no - 1), max_size=no))
    return st.lists(term, max_size=max_terms).map(build)


class TestRothsteinTable:
    """Coordinate bracket table for random polynomial connections."""

    def setup_method(self):
        self.ctx = rothstein_ctx(seed=3)
        self.g = self.ctx.gens.gen
        self.conn = self.ctx.connection

    def test_q_p(self):
        for i in range(2):
            for j in range(2):
                b = self.ctx.rothstein(self.g(f"q{i+1}"), self.g(f"p_{j+1}"))
                assert b == self.ctx.gens.scalar(1 if i == j else 0)

    def test_lower_upper(self):
        for a in range(2):
            for b in range(2):
                v = self.ctx.rothstein(self.g(f"a_{a+1}"), self.g(f"a^{b+1}"))
                assert v == self.ctx.gens.scalar(1 if a == b else 0)

    def test_p_p_curvature(self):
        gens = self.ctx.gens
        for i in range(2):
            for j in range(2):
                v = self.ctx.rothstein(self.g(f"p_{i+1}"), self.g(f"p_{j+1}"))
                expect = gens.zero()
                for a in range(2):
                    for b in range(2):
                        expect = expect + (self.conn.curvature(i, j, b, a)
                                           * self.g(f"a_{a+1}") * self.g(f"a^{b+1}"))
                assert v == expect

    def test_p_lower(self):
        gens = self.ctx.gens
        for i in range(2):
            for a in range(2):
                v = self.ctx.rothstein(self.g(f"p_{i+1}"), self.g(f"a_{a+1}"))
                expect = gens.zero()
                for b in range(2):
                    expect = expect - (self.conn.christoffel(i, a, b)
                                       * self.g(f"a_{b+1}"))
                assert v == expect

    def test_p_upper(self):
        gens = self.ctx.gens
        for i in range(2):
            for a in range(2):
                v = self.ctx.rothstein(self.g(f"p_{i+1}"), self.g(f"a^{a+1}"))
                expect = gens.zero()
                for b in range(2):
                    expect = expect + (self.conn.christoffel(i, b, a)
                                       * self.g(f"a^{b+1}"))
                assert v == expect

    def test_vanishing_pairs(self):
        z = [("q1", "q2"), ("q1", "a_1"), ("q2", "a^2"),
             ("a_1", "a_2"), ("a^1", "a^2")]
        for x, y in z:
            assert self.ctx.rothstein(self.g(x), self.g(y)).is_zero()

    def test_missing_connection(self):
        with pytest.raises(MissingConnection):
            BracketContext("ROTHSTEIN", phase_generators(1, 1))


PG = phase_generators(2, 2)


class TestRothsteinLaws:
    @given(st.integers(0, 5), phase_elements(PG), phase_elements(PG))
    @settings(max_examples=25, deadline=None)
    def test_graded_antisymmetry(self, seed, a, b):
        ctx = BracketContext.rothstein_on(random_connection(seed, gens=PG))
        for p, ap in split_odd(a).items():
            for q, bq in split_odd(b).items():
                sign = (-1) ** (p * q)
                assert ctx.rothstein(ap, bq) == -sign * ctx.rothstein(bq, ap)

    @given(st.integers(0, 5), phase_elements(PG), phase_elements(PG),
           phase_elements(PG))
    @settings(max_examples=15, deadline=None)
    def test_graded_leibniz(self, seed, a, b, c):
        ctx = BracketContext.rothstein_on(random_connection(seed, gens=PG))
        for p, ap in split_odd(a).items():
            for q, bq in split_odd(b).items():
                lhs = ctx.rothstein(ap, bq * c)
                rhs = (ctx.rothstein(ap, bq) * c
                       + (-1) ** (p * q) * bq * ctx.rothstein(ap, c))
                assert lhs == rhs

    @given(st.integers(0, 3), phase_elements(PG, 2), phase_elements(PG, 2),
           phase_elements(PG, 2))
    @settings(max_examples=10, deadline=None)
    def test_graded_jacobi(self, seed, a, b, c):
        ctx = BracketContext.rothstein_on(random_connection(seed, gens=PG))
        for p, ap in split_odd(a).items():
            for q, bq in split_odd(b).items():
                lhs = ctx.rothstein(ap, ctx.rothstein(bq, c))
                rhs = (ctx.rothstein(ctx.rothstein(ap, bq), c)
                       + (-1) ** (p * q) * ctx.rothstein(bq, ctx.rothstein(ap, c)))
                assert lhs == rhs

    def test_relabeling_invariance(self):
        # swap the two base coordinates together with the Gamma index
        conn = random_connection(11, gens=PG)
        ctx = BracketContext.rothstein_on(conn)
        swapped = {(1 - i, a, b): v for (i, a, b), v in conn.gamma.items()}
        gens2 = PG

        def relabel(x):
            out = {}
            for (e, o), c in x.terms.items():
                e2 = (e[1], e[0], e[3], e[2])
                out[(e2, o)] = c
            return SuperElement(gens2, out)

        conn2 = ConnectionData(gens2, 2, 2,
                               {k: relabel(v) for k, v in swapped.items()})
        ctx2 = BracketContext.rothstein_on(conn2)
        x = PG.gen("p_1") * PG.gen("a_1") + PG.gen("q2") * PG.gen("a^2")
        y = PG.gen("p_2") + PG.gen("q1") * PG.gen("a_2") * PG.gen("a^1")
        assert relabel(ctx.rothstein(x, y)) == ctx2.rothstein(relabel(x), relabel(y))


# ---------------------------------------------------------------------
# The tabulated bracket against the bracket bodies it replaced
# ---------------------------------------------------------------------

def base_poly(gens, m, draws):
    """sum c * q^e over draws [(c, exponents)], in the first m evens."""
    out = gens.zero()
    for c, exps in draws:
        term = gens.scalar(c)
        for i, p in enumerate(exps[:m]):
            term = term * gens.gen(gens.even[i]) ** p
        out = out + term
    return out


@st.composite
def polynomial_connections(draw, max_m=3, max_k=3):
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    gens = phase_generators(m, k)
    poly = st.lists(st.tuples(st.integers(-2, 2),
                              st.lists(st.integers(0, 2), min_size=m,
                                       max_size=m)), max_size=2)
    gamma = {}
    for i in range(m):
        for a in range(k):
            for b in range(k):
                gamma[(i, a, b)] = base_poly(gens, m, draw(poly))
    return ConnectionData(gens, m, k, gamma)


class TestCurvatureRows:
    """The p_i p_j rows of the Rothstein table hold each curvature entry
    once per pair, negated for (j, i); each equals its own sum over the
    ordered pair."""

    @given(polynomial_connections())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_ordered_pair_sums(self, conn):
        ctx = BracketContext.rothstein_on(conn)
        gens, m, k = ctx.gens, conn.m, conn.k
        lo = [gens.gen(gens.odd[a]) for a in range(k)]
        up = [gens.gen(gens.odd[k + a]) for a in range(k)]
        rows = {a: dict(entries) for a, entries in ctx._rows}
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                want = sum((conn.curvature(i, j, b, a) * lo[a] * up[b]
                            for a in range(k) for b in range(k)),
                           gens.zero())
                got = rows.get(m + i, {}).get(m + j, gens.zero())
                assert got == want


class TestOracles:
    """`bracket` agrees with the five-term Rothstein body (covariant
    derivative plus curvature) and with the Schouten body assembled from
    odd-homogeneous components, on inhomogeneous pairs."""

    @given(polynomial_connections(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rothstein(self, conn, data):
        ctx = BracketContext.rothstein_on(conn)
        for _ in range(3):
            a = data.draw(phase_elements(ctx.gens))
            b = data.draw(phase_elements(ctx.gens))
            assert ctx.bracket(a, b) == oracle.rothstein(ctx, a, b)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_point_big(self, k, data):
        ctx = BracketContext.point_big(k)
        a = data.draw(phase_elements(ctx.gens, 4))
        b = data.draw(phase_elements(ctx.gens, 4))
        assert ctx.bracket(a, b) == oracle.rothstein(ctx, a, b)

    @given(st.permutations(range(3)), multivectors(PERM_GENS, 4),
           multivectors(PERM_GENS, 4))
    @settings(max_examples=40, deadline=None)
    def test_schouten_permuted_conjugates(self, perm, P, Q):
        ctx = BracketContext(SCHOUTEN, PERM_GENS,
                             conjugate=dict(enumerate(perm)))
        assert ctx.bracket(P, Q) == oracle.schouten(ctx, P, Q)

    @given(st.sampled_from([SCHOUTEN, ROTHSTEIN, POINT_BIG]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_bracket(self, kind, data):
        """contract(right_partials(f), left_partials(g)) is bracket(f, g),
        term for term in the same order, and both equal the reference
        bracket."""
        if kind == SCHOUTEN:
            ctx = BracketContext(SCHOUTEN, PERM_GENS, conjugate=dict(
                enumerate(data.draw(st.permutations(range(3))))))
            elements, reference = multivectors(ctx.gens, 4), oracle.schouten
        else:
            ctx = BracketContext.rothstein_on(
                data.draw(polynomial_connections())) if kind == ROTHSTEIN \
                else BracketContext.point_big(data.draw(st.integers(1, 3)))
            elements, reference = phase_elements(ctx.gens, 4), \
                oracle.rothstein
        f, g = data.draw(elements), data.draw(elements)
        split = ctx.contract(ctx.right_partials(f), ctx.left_partials(g))
        whole = ctx.bracket(f, g)
        assert split == whole == reference(ctx, f, g)
        assert list(split.terms.items()) == list(whole.terms.items())

    def test_left_partials_are_lazy(self):
        ctx = BracketContext.point_big(2)
        gens = ctx.gens
        a_1, a_2, a1 = (gens.gen(gens.odd[i]) for i in (0, 1, 2))
        lg = ctx.left_partials(a_1 * a_2)
        assert ctx.contract(ctx.right_partials(gens.one()), lg).is_zero()
        assert not lg
        # the row of a^1 has the one column a_1, at flat index n_even + 0
        assert ctx.contract(ctx.right_partials(a1), lg) == a_2
        assert list(lg) == [len(gens.even) + 0]

    def test_partials_need_the_context_generators(self):
        # the partials are read by index: an element over another set is
        # refused, one over an equal copy of the context's set is not
        ctx = BracketContext.point_big(2)
        twin, other = phase_generators(0, 2), phase_generators(0, 3)
        x = twin.gen("a_1") * twin.gen("a^1")
        assert ctx.bracket(x, twin.gen("a_2")) \
            == ctx.bracket(ctx.gens.gen("a_1") * ctx.gens.gen("a^1"),
                           ctx.gens.gen("a_2"))
        for f in (ctx.right_partials, ctx.left_partials):
            with pytest.raises(GeneratorMismatch):
                f(other.gen("a_1"))

    def test_schouten_table_follows_conjugate_map(self):
        ctx = BracketContext(SCHOUTEN, PERM_GENS, conjugate={0: 2, 1: 0,
                                                             2: 1})
        g = PERM_GENS.gen
        assert ctx.bracket(g("dz"), g("x")) == PERM_GENS.one()
        assert ctx.bracket(g("x"), g("dz")) == -PERM_GENS.one()
        assert ctx.bracket(g("dx"), g("x")).is_zero()


class TestLayoutValidation:
    @pytest.mark.parametrize("conjugate", [
        {-1: 0, 0: 1},     # wraps around to the last even generator
        {5: 0, 1: 1},      # out of range
        {0: 0, 1: 0},      # not injective
        {0: 0},            # not onto
        {0: 0, 1: 1, 2: 1},
        {0: True, 1: 0},   # not an int
        {0.0: 0, 1: 1},
    ])
    def test_conjugate_must_be_a_bijection(self, conjugate):
        gens = GeneratorSet(["x", "y"], ["dx", "dy"])
        with pytest.raises(ValueError):
            BracketContext(SCHOUTEN, gens, conjugate=conjugate)

    def test_default_conjugate_needs_equal_counts(self):
        with pytest.raises(ValueError):
            BracketContext(SCHOUTEN, GeneratorSet(["x", "y"], ["dx"]))

    @pytest.mark.parametrize("gens, k", [
        (GeneratorSet([], ["a", "b", "c"]), None),    # odd count
        (phase_generators(0, 2), 1),                  # 4 odd, k = 1
        (phase_generators(1, 1), None),               # even generators
        (phase_generators(0, 1), -1),
    ])
    def test_point_big_layout(self, gens, k):
        with pytest.raises(ValueError):
            BracketContext(POINT_BIG, gens, k=k)

    def test_rothstein_layout(self):
        conn = ConnectionData(phase_generators(1, 1), 1, 1)
        with pytest.raises(ValueError):
            BracketContext("ROTHSTEIN", phase_generators(2, 1),
                           connection=conn)


class TestDarboux:
    def test_flat_case(self):
        gens = phase_generators(2, 2)
        ctx = BracketContext.rothstein_on(ConnectionData(gens, 2, 2, {}))
        r = ctx.darboux_momenta()
        assert r == [gens.gen("p_1"), gens.gen("p_2")]

    @pytest.mark.parametrize("seed", range(6))
    def test_darboux_relations(self, seed):
        ctx = BracketContext.rothstein_on(random_connection(seed, gens=PG))
        g = ctx.gens.gen
        r = ctx.darboux_momenta()
        for i in range(2):
            for j in range(2):
                assert (ctx.rothstein(g(f"q{i+1}"), r[j])
                        == ctx.gens.scalar(1 if i == j else 0))
                assert ctx.rothstein(r[i], r[j]).is_zero()
            for a in range(2):
                assert ctx.rothstein(r[i], g(f"a_{a+1}")).is_zero()
                assert ctx.rothstein(r[i], g(f"a^{a+1}")).is_zero()
        for a in range(2):
            for b in range(2):
                assert (ctx.rothstein(g(f"a^{a+1}"), g(f"a_{b+1}"))
                        == ctx.gens.scalar(1 if a == b else 0))


# ---------------------------------------------------------------------
# Derived brackets and the master equation
# ---------------------------------------------------------------------

EPS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def eps_sign(p):
    return {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (0, 2, 1): -1, (1, 0, 2): -1, (2, 1, 0): -1}[p]


def point_mu(ctx, c):
    """mu = -1/2 c_{ab}^g a^a a^b a_g over a point."""
    gens = ctx.gens
    k = ctx.k
    mu = gens.zero()
    for a in range(k):
        for b in range(k):
            for g in range(k):
                cc = c(a, b, g)
                if cc:
                    mu = mu - (Fraction(cc, 2) * gens.gen(f"a^{a+1}")
                               * gens.gen(f"a^{b+1}") * gens.gen(f"a_{g+1}"))
    return mu


def so3_c(a, b, g):
    if (a, b, g) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1
    if (a, b, g) in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
        return -1
    return 0


class TestDerived:
    def test_zero_theta(self):
        ctx = BracketContext.point_big(2)
        x = ctx.gens.gen("a_1")
        assert derived_bracket(ctx, ctx.gens.zero(), x, x).is_zero()

    def test_structure_constants_recovered(self):
        ctx = BracketContext.point_big(3)
        mu = point_mu(ctx, so3_c)
        g = ctx.gens.gen
        for nu in range(3):
            for ka in range(3):
                got = derived_bracket(ctx, mu, g(f"a_{nu+1}"), g(f"a_{ka+1}"))
                expect = ctx.gens.zero()
                for ga in range(3):
                    expect = expect + so3_c(nu, ka, ga) * g(f"a_{ga+1}")
                assert got == expect

    def test_derived_diff_on_upper(self):
        # {mu, a^a} = -1/2 c_{bg}^a a^b a^g
        ctx = BracketContext.point_big(3)
        mu = point_mu(ctx, so3_c)
        g = ctx.gens.gen
        for a in range(3):
            got = derived_diff(ctx, mu, g(f"a^{a+1}"))
            expect = ctx.gens.zero()
            for b in range(3):
                for ga in range(3):
                    expect = expect - (Fraction(so3_c(b, ga, a), 2)
                                       * g(f"a^{b+1}") * g(f"a^{ga+1}"))
            assert got == expect


class TestMaster:
    def test_abelian(self):
        ctx = BracketContext.point_big(2)
        res = master_residuals(ctx, point_mu(ctx, lambda *a: 0))
        assert res["total"].is_zero()
        assert all(v.is_zero() for v in res["components"].values())

    def test_so3_master(self):
        ctx = BracketContext.point_big(3)
        res = master_residuals(ctx, point_mu(ctx, so3_c))
        assert res["total"].is_zero()
        assert all(v.is_zero() for v in res["components"].values())

    def test_standard_courant(self):
        # mu = -p_i a^i on Q^m with rho = id, c = 0, flat Gamma
        m = 2
        gens = phase_generators(m, m)
        ctx = BracketContext.rothstein_on(ConnectionData(gens, m, m, {}))
        mu = gens.zero()
        for i in range(m):
            mu = mu - gens.gen(f"p_{i+1}") * gens.gen(f"a^{i+1}")
        res = master_residuals(ctx, mu)
        assert res["total"].is_zero()

    def test_non_jacobi_residual(self):
        # c_{12}^3 = 1 totally antisymmetrized plus c_{13}^2 = 1 breaks Jacobi
        # [e1,e2] = e3, [e2,e3] = e2: Jacobiator(e1,e2,e3) = -e3 != 0
        def bad_c(a, b, g):
            if (a, b, g) == (0, 1, 2):
                return 1
            if (a, b, g) == (1, 0, 2):
                return -1
            if (a, b, g) == (1, 2, 1):
                return 1
            if (a, b, g) == (2, 1, 1):
                return -1
            return 0

        ctx = BracketContext.point_big(3)
        res = master_residuals(ctx, point_mu(ctx, bad_c))
        assert not res["components"][(1, 3)].is_zero()
        # cross-check: the derived bracket itself violates Jacobi somewhere
        g = ctx.gens.gen
        mu = point_mu(ctx, bad_c)
        defect_found = False
        for a in range(3):
            for b in range(3):
                for d in range(3):
                    x = derived_bracket(ctx, mu,
                                        derived_bracket(ctx, mu, g(f"a_{a+1}"),
                                                        g(f"a_{b+1}")),
                                        g(f"a_{d+1}"))
                    y = derived_bracket(ctx, mu, g(f"a_{a+1}"),
                                        derived_bracket(ctx, mu, g(f"a_{b+1}"),
                                                        g(f"a_{d+1}")))
                    z = derived_bracket(ctx, mu, g(f"a_{b+1}"),
                                        derived_bracket(ctx, mu, g(f"a_{a+1}"),
                                                        g(f"a_{d+1}")))
                    if not (x + z - y).is_zero():
                        defect_found = True
        assert defect_found

    def test_wrong_degree(self):
        ctx = BracketContext.point_big(2)
        with pytest.raises(WrongDegree):
            master_residuals(ctx, ctx.gens.gen("a_1"))

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=15, deadline=None)
    def test_components_sum_to_half_total(self, seed, data):
        gens = phase_generators(1, 2)
        ctx = BracketContext.rothstein_on(random_connection(seed, 1, 2, gens))
        # random chi-degree-3 element
        theta = gens.zero()
        monos = []
        g = gens.gen
        lows = [g("a_1"), g("a_2")]
        ups = [g("a^1"), g("a^2")]
        p = g("p_1")
        monos.append(p * ups[1])
        monos.append(p * lows[0])
        monos.append(lows[0] * lows[1] * ups[0])
        monos.append(ups[0] * ups[1] * lows[1])
        for mterm in monos:
            coeff = data.draw(small_frac)
            qpow = data.draw(st.integers(0, 1))
            theta = theta + coeff * g("q1") ** qpow * mterm
        res = master_residuals(ctx, theta)
        total = gens.zero()
        for v in res["components"].values():
            total = total + v
        assert total * 2 == res["total"]
