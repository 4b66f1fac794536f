import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superalg_oracles as oracle
from diracdeform import superalg
from diracdeform.brackets import BracketContext
from diracdeform.superalg import (
    ConnectionData,
    GeneratorMismatch,
    GeneratorSet,
    NotHomogeneous,
    ParseError,
    SuperElement,
    UnknownGenerator,
    bidegree_components,
    parse,
    phase_generators,
    to_text,
)
from diracdeform.algebroid import euler_weight
from diracdeform.courant_theory import (
    NotOddLinear,
    ghost_degree,
    insert_left,
    insert_right,
)

G = phase_generators(2, 2)  # q1 q2 p_1 p_2 ; a_1 a_2 a^1 a^2


def g(name):
    return G.gen(name)


small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def random_elements(gens, max_terms=4, max_pow=2):
    """Strategy producing SuperElements over `gens`."""
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

    ne, no = len(gens.even), len(gens.odd)
    term = st.tuples(
        small_frac,
        st.lists(st.integers(0, max_pow), min_size=ne, max_size=ne),
        st.lists(st.integers(0, no - 1), max_size=no),
    )
    return st.lists(term, max_size=max_terms).map(build)


class TestProduct:
    def test_odd_square_zero(self):
        assert (g("a_1") * g("a_1")).is_zero()

    def test_odd_anticommute(self):
        assert g("a_1") * g("a^2") == -(g("a^2") * g("a_1"))

    def test_even_factors_commute(self):
        lhs = (g("q1") * g("a_1")) * (g("q2") * g("a_2"))
        rhs = g("q1") * g("q2") * g("a_1") * g("a_2")
        assert lhs == rhs

    def test_koszul_three_factors(self):
        # a_2 a_1 a^1 = -a_1 a_2 a^1; moving a^1 to front costs two swaps
        x = g("a_2") * g("a_1") * g("a^1")
        y = g("a^1") * g("a_1") * g("a_2")
        assert x == -(g("a_1") * g("a_2") * g("a^1"))
        assert y == g("a_1") * g("a_2") * g("a^1")

    def test_generator_mismatch(self):
        H = phase_generators(1, 1)
        with pytest.raises(GeneratorMismatch):
            g("q1") * H.gen("q1")

    @given(random_elements(G), random_elements(G), random_elements(G))
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(random_elements(G), random_elements(G))
    @settings(max_examples=60, deadline=None)
    def test_supercommutative(self, a, b):
        # compare componentwise in odd degree to avoid homogeneity demands
        from diracdeform.superalg import SuperElement
        for (e1, o1), c1 in a.terms.items():
            ma = SuperElement(G, {(e1, o1): c1})
            for (e2, o2), c2 in b.terms.items():
                mb = SuperElement(G, {(e2, o2): c2})
                sign = (-1) ** (len(o1) * len(o2))
                assert ma * mb == (mb * ma) * sign

    @given(random_elements(G), random_elements(G), random_elements(G))
    @settings(max_examples=40, deadline=None)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestDerivatives:
    def test_partial_even_product(self):
        assert (g("p_1") * g("p_2")).partial_even("p_1") == g("p_2")

    def test_left_odd_sign(self):
        x = g("a_2") * g("a_1")
        assert x.partial_odd("a_1", "left") == -g("a_2")

    def test_even_power(self):
        x = g("q1") ** 2 * g("a_1") * g("a^2")
        expect = g("q1") * g("a_1") * g("a^2") * 2
        assert x.partial_even("q1") == expect

    def test_right_odd_sign(self):
        x = g("a_1") * g("a_2")
        assert x.partial_odd("a_1", "right") == -g("a_2")
        assert x.partial_odd("a_2", "right") == g("a_1")

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            g("q1").partial_even("q9")
        with pytest.raises(UnknownGenerator):
            g("a_1").partial_odd("zz")
        # an index does not wrap around
        for i in (-1, 4):
            with pytest.raises(UnknownGenerator):
                g("q1").partial_even_at(i)
            with pytest.raises(UnknownGenerator):
                g("a_1").partial_odd_at(i, False)

    @given(random_elements(G))
    @settings(max_examples=40, deadline=None)
    def test_odd_derivative_squares_to_zero(self, a):
        for name in G.odd:
            assert a.partial_odd(name).partial_odd(name).is_zero()

    @given(random_elements(G))
    @settings(max_examples=40, deadline=None)
    def test_odd_derivatives_anticommute(self, a):
        d1 = a.partial_odd("a_1").partial_odd("a^2")
        d2 = a.partial_odd("a^2").partial_odd("a_1")
        assert d1 == -d2

    @given(random_elements(G))
    @settings(max_examples=40, deadline=None)
    def test_even_derivatives_commute(self, a):
        d1 = a.partial_even("q1").partial_even("p_2")
        d2 = a.partial_even("p_2").partial_even("q1")
        assert d1 == d2


@st.composite
def phase_operands(draw):
    """(gens, a, b) over phase_generators(m, k) for small m and k."""
    gens = phase_generators(draw(st.integers(0, 2)), draw(st.integers(1, 2)))
    return gens, draw(random_elements(gens)), draw(random_elements(gens))


def no_zero_coefficient(*elements):
    return all(c != 0 for x in elements for c in x.terms.values())


class TestAgainstOracles:
    """Subtraction in one pass and derivatives by generator index against
    the bodies they replaced (tests/superalg_oracles.py): the same terms
    in the same order."""

    @given(phase_operands(), small_frac)
    @settings(max_examples=80, deadline=None)
    def test_subtraction(self, operands, c):
        gens, a, b = operands
        for got, want in [(a - b, oracle.sub(a, b)), (a - c, oracle.sub(a, c)),
                          (c - a, oracle.rsub(c, a))]:
            assert list(got.terms.items()) == list(want.terms.items())
            assert no_zero_coefficient(got)
        assert a - b == a + (-b)
        assert c - a == gens.scalar(c) + (-a)
        assert (a - a).is_zero()

    @given(phase_operands())
    @settings(max_examples=80, deadline=None)
    def test_partials(self, operands):
        gens, a, _ = operands
        for i, name in enumerate(gens.even):
            got, want = a.partial_even_at(i), oracle.partial_even(a, name)
            assert list(got.terms.items()) == list(want.terms.items())
            assert a.partial_even(name) == want
            assert no_zero_coefficient(got)
        for i, name in enumerate(gens.odd):
            for side in ("left", "right"):
                got = a.partial_odd_at(i, side == "left")
                want = oracle.partial_odd(a, name, side)
                assert list(got.terms.items()) == list(want.terms.items())
                assert a.partial_odd(name, side) == want
                assert no_zero_coefficient(got)

    @given(phase_operands())
    @settings(max_examples=60, deadline=None)
    def test_no_zero_coefficient_is_stored(self, operands):
        gens, a, b = operands
        ctx = BracketContext.rothstein_on(
            ConnectionData(gens, len(gens.even) // 2, len(gens.odd) // 2))
        assert no_zero_coefficient(a + b, a - b, -a, a * b, b * a, a * 2,
                                   ctx.bracket(a, b), ctx.bracket(a, a))

    @given(phase_operands())
    @settings(max_examples=40, deadline=None)
    def test_generator_sets_compare_by_value(self, operands):
        gens, a, b = operands
        m, k = len(gens.even) // 2, len(gens.odd) // 2
        twin = phase_generators(m, k)       # equal, another object
        assert twin is not gens and twin == gens
        b2 = SuperElement(twin, dict(b.terms))
        assert a + b2 == a + b and a - b2 == a - b and a * b2 == a * b
        other = SuperElement(phase_generators(m, k + 1), dict(b.terms))
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(GeneratorMismatch):
                op(a, other)
            with pytest.raises(GeneratorMismatch):
                op(other, a)


def exact(x):
    """Every coefficient of x is an int or a Fraction."""
    return all(type(c) in (int, Fraction) for c in x.terms.values())


def integral(x):
    return all(type(c) is int for c in x.terms.values())


def mixed_elements(gens, max_terms=4, max_pow=2):
    """(a, f): an element whose coefficients are ints and Fractions,
    integral ones among them, and its copy f with every coefficient a
    Fraction."""
    ne, no = len(gens.even), len(gens.odd)

    def build(draws):
        terms = {}
        for c, as_int, evens, odds in draws:
            key = (tuple(evens), tuple(sorted(odds)))
            terms[key] = c.numerator if as_int and c.denominator == 1 else c
        return (SuperElement(gens, terms),
                SuperElement(gens, {m: Fraction(c)
                                    for m, c in terms.items()}))

    term = st.tuples(small_frac.filter(bool), st.booleans(),
                     st.lists(st.integers(0, max_pow), min_size=ne,
                              max_size=ne),
                     st.sets(st.integers(0, no - 1)))
    return st.lists(term, max_size=max_terms).map(build)


class TestIntegralCoefficients:
    """Integral constants are ints, int with int arithmetic stays int,
    and mixing ints with Fractions gives the values and the text that
    all-Fraction coefficients give.  No coefficient is ever a float."""

    @staticmethod
    def same(got, want):
        assert exact(got)
        assert got == want
        assert to_text(got) == to_text(want)

    @given(mixed_elements(G), mixed_elements(G), small_frac,
           st.integers(-3, 3), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_mixed_like_fractions(self, a, b, c, n, power):
        (a, fa), (b, fb) = a, b
        for op in (operator.add, operator.sub, operator.mul):
            self.same(op(a, b), op(fa, fb))
        self.same(-a, -fa)
        for s in (c, n):
            self.same(a * s, fa * Fraction(s))
            self.same(s * a, Fraction(s) * fa)
            self.same(a + s, fa + Fraction(s))
            self.same(s - a, Fraction(s) - fa)
        self.same(a ** power, fa ** power)
        for i in range(len(G.even)):
            self.same(a.partial_even_at(i), fa.partial_even_at(i))
        for i in range(len(G.odd)):
            for left in (True, False):
                self.same(a.partial_odd_at(i, left),
                          fa.partial_odd_at(i, left))
        self.same(parse(G, to_text(a)), fa)

    @given(random_elements(G), random_elements(G), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_int_with_int_stays_int(self, a, b, n):
        a = SuperElement(G, {m: c.numerator for m, c in a.terms.items()
                             if c.numerator})
        b = SuperElement(G, {m: c.numerator for m, c in b.terms.items()
                             if c.numerator})
        results = [a + b, a - b, a * b, -a, a * n, n - a, a ** 2,
                   parse(G, to_text(a))]
        results += [a.partial_even_at(i) for i in range(len(G.even))]
        results += [a.partial_odd_at(i, left) for i in range(len(G.odd))
                    for left in (True, False)]
        assert all(integral(x) for x in results)

    def test_integral_constants_are_ints(self):
        for x in (g("q1"), g("a^2"), G.one(), G.scalar(3),
                  G.scalar(Fraction(6, 3)), G.scalar(True),
                  G.monomial(Fraction(-4, 2), {"q1": 2}, ["a_1"]),
                  parse(G, "2 q1 + -3 a_1 a^1"), g("q1") * 2,
                  ConnectionData(G, 2, 2, {(0, 0, 1): g("q2")})
                  .curvature(0, 1, 0, 1)):
            assert integral(x)
        half = G.scalar(Fraction(1, 2))
        assert list(half.terms.values()) == [Fraction(1, 2)]

    def test_floats_are_refused(self):
        x = g("q1")
        for make in (lambda: G.scalar(0.1), lambda: x * 0.1,
                     lambda: 0.1 * x, lambda: x + 0.5, lambda: 0.5 - x,
                     lambda: x / 0.5, lambda: G.monomial(0.5, {"q1": 1}),
                     lambda: G.scalar("1/2")):
            with pytest.raises(TypeError):
                make()


class TestInsertions:
    def test_insert_left(self):
        assert insert_left(g("a_1"), g("a_1") * g("a_2")) == g("a_2")

    def test_insert_right(self):
        assert insert_right(g("a_2"), g("a_1") * g("a_2")) == g("a_1")

    def test_relation_at_degree_one(self):
        lhs = insert_right(g("a_1"), g("a_1"))
        rhs = -((-1) ** 1) * insert_left(g("a_1"), g("a_1"))
        assert (lhs - rhs).is_zero()

    def test_not_odd_linear(self):
        with pytest.raises(NotOddLinear):
            insert_left(g("q1"), g("a_1"))
        with pytest.raises(NotOddLinear):
            insert_left(g("a_1") * g("a_2"), g("a_1"))

    @given(random_elements(G))
    @settings(max_examples=40, deadline=None)
    def test_right_left_relation(self, a):
        # j(s)phi = -(-1)^l i(s)phi on each odd-homogeneous component
        from diracdeform.superalg import SuperElement
        s = g("a_1") + 2 * g("a^2")
        by_deg = {}
        for (e, o), c in a.terms.items():
            by_deg.setdefault(len(o), {})[(e, o)] = c
        for ell, terms in by_deg.items():
            phi = SuperElement(G, terms)
            assert insert_right(s, phi) == -((-1) ** ell) * insert_left(s, phi)


class TestGrading:
    def test_momentum_bidegree(self):
        assert bidegree_components(g("p_1")) == {(1, 1): g("p_1")}

    def test_odd_bidegree(self):
        x = g("a_1") * g("a_2") * g("a^1")
        comps = bidegree_components(x)
        assert list(comps) == [(2, 1)]
        assert comps[(2, 1)] == x

    def test_zero(self):
        assert bidegree_components(G.zero()) == {}

    def test_components_sum(self):
        x = g("p_1") * g("a^1") + g("q1") * g("a_2") + G.scalar(Fraction(1, 3))
        comps = bidegree_components(x)
        total = G.zero()
        for v in comps.values():
            total = total + v
        assert total == x
        assert set(comps) == {(1, 2), (1, 0), (0, 0)}

    @given(random_elements(G), random_elements(G))
    @settings(max_examples=40, deadline=None)
    def test_bigrading_additive(self, a, b):
        from diracdeform.superalg import SuperElement
        for (m1, c1) in a.terms.items():
            for (m2, c2) in b.terms.items():
                x = SuperElement(G, {m1: c1})
                y = SuperElement(G, {m2: c2})
                p = x * y
                if p.is_zero():
                    continue
                (e1, l1), = bidegree_components(x)
                (e2, l2), = bidegree_components(y)
                (ep, lp), = bidegree_components(p)
                assert (ep, lp) == (e1 + e2, l1 + l2)
                assert ghost_degree(p) == ghost_degree(x) + ghost_degree(y)


class TestEulerWeight:
    # Multivector-field generator set: base x, fiber v (even),
    # conjugate odds xh (to x) and vh (to v).
    M = GeneratorSet(["x1", "x2", "v1", "v2"], ["xh1", "xh2", "vh1", "vh2"])

    def w(self, a):
        return euler_weight(a, ["v1", "v2"], ["vh1", "vh2"])

    def test_linear_fiber_function(self):
        assert self.w(self.M.gen("v1")) == 1

    def test_conjugate_odd(self):
        assert self.w(self.M.gen("vh1")) == -1

    def test_mixed_weight_zero(self):
        x = self.M.gen("x1") * self.M.gen("v1") * self.M.gen("vh2")
        assert self.w(x) == 0

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            self.w(self.M.gen("v1") + self.M.gen("x1"))


class TestTextGrammar:
    def test_example(self):
        s = "3/2 q1^2 p_1 a_1 a^2"
        x = parse(G, s)
        expect = (G.scalar(Fraction(3, 2)) * g("q1") ** 2 * g("p_1")
                  * g("a_1") * g("a^2"))
        assert x == expect
        assert to_text(x) == s

    def test_zero(self):
        assert to_text(G.zero()) == "0"
        assert parse(G, "0").is_zero()

    def test_negative_and_sum(self):
        x = -g("q1") + G.scalar(Fraction(1, 2)) * g("a_1") * g("a_2")
        assert parse(G, to_text(x)) == x

    def test_unit_coefficient_accepted(self):
        assert parse(G, "q1 a_1") == g("q1") * g("a_1")

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse(G, "1 bogus")

    @given(random_elements(G))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, a):
        s = to_text(a)
        assert parse(G, s) == a
        assert to_text(parse(G, s)) == s


class TestConnectionData:
    def test_zero_gamma(self):
        conn = ConnectionData(G, 2, 2, {})
        assert conn.curvature(0, 1, 0, 0).is_zero()

    def test_curvature_antisymmetry_random(self):
        import random
        rng = random.Random(7)
        for _ in range(5):
            gamma = {}
            for i in range(2):
                for a in range(2):
                    for b in range(2):
                        c0 = Fraction(rng.randint(-3, 3))
                        c1 = Fraction(rng.randint(-3, 3))
                        gamma[(i, a, b)] = G.scalar(c0) + c1 * g("q1") * g("q2")
            conn = ConnectionData(G, 2, 2, gamma)
            for i in range(2):
                for j in range(2):
                    for a in range(2):
                        for b in range(2):
                            lhs = conn.curvature(i, j, a, b)
                            rhs = conn.curvature(j, i, a, b)
                            assert lhs == -rhs

    def test_constant_gamma_commutator_curvature(self):
        # For q-independent Gamma the derivative terms vanish and R is the
        # matrix commutator [G_i, G_j] read through R^b_{a i j}.
        gamma = {(0, 0, 1): G.scalar(2), (1, 1, 0): G.scalar(3)}
        conn = ConnectionData(G, 2, 2, gamma)
        # R^b_{a 0 1} = sum_g G0[g,b] G1[a,g] - G1[g,b] G0[a,g]
        assert conn.curvature(0, 1, 1, 1) == G.scalar(6)
        assert conn.curvature(0, 1, 0, 0) == G.scalar(-6)

    def test_rejects_momentum_dependence(self):
        with pytest.raises(ValueError):
            ConnectionData(G, 2, 2, {(0, 0, 0): g("p_1")})


@pytest.mark.parametrize("args, expected", [
    (((1, 0), (0, 2), (0, 1), (1, 3)), ((1, 1), (0, 1, 2, 3), -1)),
    (((0, 0), (2, 0, 1), (0, 0), (3,)), ((0, 0), (2, 0, 1, 3), 1)),
    (((1, 1), (0,), (1, 1), (0,)), None),
    (((0, 0), (), (0, 0), (1, 2)), ((0, 0), (1, 2), 1)),
], ids=["interleave", "left-run", "odd-square", "empty-left"])
def test_merge_monomials(args, expected):
    assert superalg.merge_monomials(*args) == expected
