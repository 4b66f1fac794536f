"""Tests for the Courant-algebroid engine: charge assembly, master
equation, derived operations, and the graph deformation solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracdeform import courant as co
from diracdeform import courant_theory as ct
from diracdeform.brackets import BracketContext, master_residuals
from diracdeform.algebroid import FormalSeries
from diracdeform.lie_deform import ObstructionCertificate, PreconditionMC
from diracdeform.superalg import phase_generators, to_text

import bracket_oracles
import courant_oracles
import dirac_oracles as oracle

EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}
NONJACOBI_SO3 = co.CourantInput(0, 3, c={(0, 1, 2): 1, (1, 2, 0): 1,
                                         (2, 0, 0): 1})
# the anchors d/dq1 and q1 d/dq2 with Gamma(0, 1, 0) = q2, which meets
# rho_00 and so survives in Theta; its curvature {p_1, p_2} is nonzero
TWIST2 = co.CourantInput(2, 2, rho={(0, 0): 1, (1, 1): "1 q1"},
                         gamma_conn={(0, 1, 0): "1 q2"})


def base_poly(gens, rng, m, degree=2):
    """Random polynomial in the base coordinates."""
    out = gens.scalar(Fraction(rng.randint(-2, 2)))
    for i in range(m):
        out = out + Fraction(rng.randint(-2, 2)) * gens.gen(gens.even[i])
    if degree >= 2 and m >= 2:
        out = out + (Fraction(rng.randint(-1, 1))
                     * gens.gen(gens.even[0]) * gens.gen(gens.even[1]))
    return out


def random_two_form(th, rng, polynomial=True):
    out = th.zero()
    k = th.input.k
    for a in range(k):
        for b in range(a + 1, k):
            if polynomial and th.input.m:
                f = base_poly(th.gens, rng, th.input.m)
            else:
                f = th.gens.scalar(Fraction(rng.randint(-2, 2)))
            out = out + f * th.upper(a) * th.upper(b)
    return out


@st.composite
def courant_inputs(draw):
    """CourantInputs with m <= 2, k <= 3: random anchors, constants,
    cubic terms and connection, each a polynomial of degree <= 1."""
    m, k = draw(st.integers(0, 2)), draw(st.integers(0, 3))

    def value():
        c0 = draw(st.integers(-2, 2))
        if m == 0:
            return c0
        i, c1 = draw(st.integers(1, m)), draw(st.integers(-2, 2))
        return f"{c1} q{i} + {c0}"

    def table(bounds, increasing=0):
        """Up to 3 entries; the first `increasing` indices of each key
        increase, one key per antisymmetry class."""
        if not all(bounds):
            return {}
        keys = draw(st.lists(st.tuples(*(st.integers(0, b - 1)
                                          for b in bounds)), max_size=3))
        return {key: value() for key in keys
                if all(x < y for x, y in zip(key[:increasing],
                                             key[1:increasing]))}

    return co.CourantInput(
        m, k, rho=table((m, k)), rho_bar=table((m, k)),
        c=table((k, k, k), 2), c_bar=table((k, k, k), 2),
        psi=table((k, k, k), 3), phi=table((k, k, k), 3),
        gamma_conn=table((m, k, k)))


class TestInputValidation:
    def test_antisymmetrization_fills_table(self):
        inp = co.CourantInput(0, 3, c={(0, 1, 2): 1})
        assert inp.c[(1, 0, 2)] == -inp.c[(0, 1, 2)]

    def test_conflicting_entries_rejected(self):
        with pytest.raises(co.ShapeError):
            co.CourantInput(0, 3, c={(0, 1, 2): 1, (1, 0, 2): 1})

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(co.ShapeError):
            co.CourantInput(0, 3, c={(0, 0, 2): 1})

    def test_index_out_of_range(self):
        with pytest.raises(co.ShapeError):
            co.CourantInput(0, 2, c={(0, 1, 2): 1})
        with pytest.raises(co.ShapeError):
            co.CourantInput(1, 2, rho={(1, 0): 1})

    def test_structure_functions_must_be_base_polynomials(self):
        with pytest.raises(co.ShapeError):
            co.CourantInput(1, 2, rho={(0, 0): "1 p_1"})
        with pytest.raises(co.ShapeError):
            co.CourantInput(1, 2, rho={(0, 0): "1 a_1"})

    def test_text_coercion(self):
        inp = co.CourantInput(2, 2, rho={(0, 0): "1 q1^2 + 1/2 q2"})
        g = inp.gens
        q1, q2 = g.gen(g.even[0]), g.gen(g.even[1])
        assert inp.rho[(0, 0)] == q1 * q1 + Fraction(1, 2) * q2

    @pytest.mark.parametrize("m, k, name", [
        (-1, 2, "$.m"), (0, -2, "$.k"), (True, 1, "$.m"), (1, False, "$.k"),
        (1.0, 1, "$.m"), ("2", 1, "$.m"),
    ])
    def test_counts_must_be_non_negative_ints(self, m, k, name):
        with pytest.raises(co.ShapeError, match=rf"^\{name}:"):
            co.CourantInput(m, k)
        with pytest.raises(co.ShapeError, match=rf"^\{name}:"):
            co.CourantInput.from_json({"m": m, "k": k})

    def test_psi_totally_antisymmetric(self):
        inp = co.CourantInput(0, 3, psi={(0, 1, 2): 1})
        assert inp.psi[(1, 2, 0)] == inp.psi[(0, 1, 2)]
        assert inp.psi[(1, 0, 2)] == -inp.psi[(0, 1, 2)]

    @pytest.mark.parametrize("name, key", [
        ("c", (0, 1)), ("c", (0, 1, 2, 0)), ("rho", (0, 0, 0)),
        ("rho_bar", (0,)), ("gamma_conn", (0, 0)), ("psi", ()),
        ("c", (0.5, 1, 2)), ("c", (0, 1, 2.0)), ("phi", (0, True, 2)),
        ("rho", ("0", 0)), ("gamma_conn", (0, 0, False)), ("c", 0),
        ("c", (0, 1, -1)), ("rho", (1, 0)), ("gamma_conn", (0, 3, 0)),
    ])
    def test_bad_keys_name_the_table(self, name, key):
        """A key of the wrong length, an index that is not an int (a
        bool included) or out of range: a ShapeError naming the table,
        zero values included."""
        for v in (1, 0):
            with pytest.raises(co.ShapeError, match=rf"^\$\.{name}:"):
                co.CourantInput(1, 3, **{name: {key: v}})

    @given(st.integers(0, 3), st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.integers(-2, 2).map(Fraction), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric_matches_the_old_completions(self, k, entries):
        """_antisymmetric against the three helpers it replaced, on
        tables with repeated indices, conflicts and zero values: the
        same table, or a ShapeError from both."""
        gens = phase_generators(0, 0)
        entries = {key: gens.scalar(v) for key, v in entries.items()
                   if all(x < k for x in key)}
        pairs = {key[:2]: v for key, v in entries.items()}
        for n, table, old in (
                (2, pairs, courant_oracles.antisymmetrize_pairs),
                (2, entries, courant_oracles.pairs_third),
                (3, entries, courant_oracles.antisymmetrize_triples)):
            try:
                want = old(table, k, "$.t")
            except co.ShapeError:
                with pytest.raises(co.ShapeError, match=r"^\$\.t:"):
                    co._antisymmetric(table, n, "$.t")
            else:
                assert co._antisymmetric(table, n, "$.t") == want


class TestBuildTheta:
    @given(courant_inputs())
    @settings(max_examples=60, deadline=None)
    def test_upper_half_matches_oracle(self, inp):
        """gamma and phi, derived from the lower half by exchanging the
        summands, against their written-out forms."""
        th = co.build_theta(inp)
        gamma, gamma_torsion, phi = oracle.upper_charge(inp)
        assert th.gamma == gamma == gamma_torsion
        assert th.phi == phi

    @given(courant_inputs())
    @settings(max_examples=60, deadline=None)
    def test_lower_half_matches_oracle(self, inp):
        """mu and psi against their written-out forms: mu in the
        Darboux momenta and in the torsion form."""
        th = co.build_theta(inp)
        mu, mu_torsion, psi = oracle.lower_charge(inp)
        assert th.mu == mu == mu_torsion
        assert th.psi == psi

    def test_standard_charge(self):
        th = co.build_theta(ct.standard_courant(2))
        g = th.gens
        p = [g.gen(g.even[2 + i]) for i in range(2)]
        assert th.theta == -p[0] * th.upper(0) - p[1] * th.upper(1)
        assert th.gamma.is_zero() and th.psi.is_zero() and th.phi.is_zero()

    def test_quadratic_lie_algebra_charge(self):
        th = co.build_theta(ct.quadratic_lie_algebra(EPS, 3))
        half = Fraction(-1, 2)
        expected = th.zero()
        for (a, b, g), v in co.CourantInput(0, 3, c=EPS).c.items():
            expected = expected + half * v * th.upper(a) * th.upper(b) \
                * th.lower(g)
        assert th.mu == expected
        assert th.gamma.is_zero()

    def test_bialgebra_has_both_components(self):
        th = co.build_theta(ct.lie_bialgebra(EPS, {}, 3))
        assert not th.mu.is_zero() and th.gamma.is_zero()
        th2 = co.build_theta(ct.lie_bialgebra({}, EPS, 3))
        assert th2.mu.is_zero() and not th2.gamma.is_zero()

    def test_connection_consistency(self):
        # the Darboux form of mu is its torsion form, for any connection;
        # here each Gamma(i, a, b) meets rho_ia, and a^a a^a = 0 drops it
        inp = co.CourantInput(2, 2, rho={(0, 0): 1, (1, 1): "1 q1"},
                              gamma_conn={(0, 0, 1): "1 q2", (1, 1, 0): 1})
        th = co.build_theta(inp)
        _, mu_torsion, _ = oracle.lower_charge(inp)
        assert th.mu == mu_torsion
        assert th.mu == co.build_theta(co.CourantInput(
            2, 2, rho={(0, 0): 1, (1, 1): "1 q1"})).mu
        # Gamma(0, 1, 0) = q2 meets rho_00: a torsion term q2 a^1 a^2 a_1
        twisted = co.CourantInput(2, 2, rho={(0, 0): 1, (1, 1): "1 q1"},
                                  gamma_conn={(0, 1, 0): "1 q2"})
        mu = co.build_theta(twisted).mu
        assert mu == oracle.lower_charge(twisted)[1] != th.mu
        res = master_residuals(th.ctx, th.theta)
        # Theta need not be square-zero here; assembly must still work
        assert th.theta == th.mu + th.gamma + th.psi + th.phi

    def test_so3_double_master(self):
        th = co.build_theta(ct.so3_double())
        res = master_residuals(th.ctx, th.theta)
        assert res["total"].is_zero()
        for comp in res["components"].values():
            assert comp.is_zero()

    def test_master_components_for_stock_models(self):
        for inp in (ct.standard_courant(2),
                    ct.quadratic_lie_algebra(EPS, 3),
                    ct.lie_bialgebra(EPS, {}, 3)):
            th = co.build_theta(inp)
            res = master_residuals(th.ctx, th.theta)
            assert res["total"].is_zero()


class TestVerify:
    def test_standard_passes(self):
        rep = co.verify_courant(ct.standard_courant(2), degree=1)
        assert rep["ok"]
        assert all(v["ok"] for v in rep["identities"].values())

    def test_so3_double_passes(self):
        assert co.verify_courant(ct.so3_double())["ok"]

    def test_bialgebra_passes(self):
        assert co.verify_courant(ct.lie_bialgebra(EPS, {}, 3))["ok"]

    def test_non_jacobi_constants_fail(self):
        bad = co.CourantInput(0, 3, c={(0, 1, 2): 1, (1, 2, 0): 1,
                                       (2, 0, 0): 1})
        rep = co.verify_courant(bad)
        assert not rep["ok"]
        assert not rep["identities"]["master"]["ok"]
        assert "(1, 3)" in rep["identities"]["master"]["components"]

    def test_incompatible_bialgebra_fails(self):
        bad = co.CourantInput(0, 3, c=EPS, c_bar=EPS)
        rep = co.verify_courant(bad)
        assert not rep["ok"]
        assert "(2, 2)" in rep["identities"]["master"]["components"]

    def test_raise_on_fail(self):
        bad = co.CourantInput(0, 3, c={(0, 1, 2): 1, (1, 2, 0): 1,
                                       (2, 0, 0): 1})
        with pytest.raises(co.AxiomViolation):
            co.verify_courant(bad, raise_on_fail=True)


@st.composite
def small_charges(draw):
    """CourantInputs with at most 12 sections at degree 1 (k = 3 only
    over a point, so that psi and phi can be nonzero): one to three
    entries per table, each a small integer or an integer linear
    polynomial in q.  About half of them have {Theta, Theta} != 0."""
    m, k = draw(st.sampled_from([(0, 2), (0, 3), (1, 1), (1, 2), (2, 1),
                                 (2, 2)]))

    def value():
        c0 = draw(st.integers(-2, 2))
        if m == 0 or draw(st.booleans()):
            return c0
        i, c1 = draw(st.integers(1, m)), draw(st.integers(-2, 2))
        return f"{c1} q{i} + {c0}"

    def table(bounds, increasing=0):
        keys = draw(st.lists(st.tuples(*(st.integers(0, b - 1)
                                         for b in bounds)),
                             min_size=1, max_size=3))
        return {key: value() for key in keys
                if all(x < y for x, y in zip(key[:increasing],
                                             key[1:increasing]))}

    anchors = {"rho": table((m, k)), "rho_bar": table((m, k)),
               "gamma_conn": table((m, k, k))} if m else {}
    return co.CourantInput(
        m, k, c=table((k, k, k), 2), c_bar=table((k, k, k), 2),
        psi=table((k, k, k), 3), phi=table((k, k, k), 3), **anchors)


class TestVerifyOracle:
    """verify_courant against the explicit six-bracket loop it replaced:
    whole reports, failing ones included, where the Jacobiators come
    from -1/2 {{{R, e1}, e2}, e3} with R = {Theta, Theta} != 0."""

    @given(small_charges(), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_random_charges(self, inp, limit):
        for section_limit in (None, limit):
            assert co.verify_courant(inp, section_limit=section_limit) \
                == courant_oracles.verify_courant(
                    inp, section_limit=section_limit)

    @pytest.mark.parametrize("inp, degree", [
        (co.CourantInput(0, 3, c={(0, 1, 2): 1, (1, 2, 0): 1,
                                  (2, 0, 0): 1}), 1),
        (co.CourantInput(0, 3, c=EPS, c_bar=EPS), 1),
        (co.CourantInput(1, 1, rho={(0, 0): 1}, rho_bar={(0, 0): "1 q1"}),
         2),
        (co.CourantInput(2, 2, rho={(0, 0): 1, (1, 1): "1 q1"},
                         c={(0, 1, 0): "1 q2"}), 1),
        (TWIST2, 1),
    ])
    def test_failing_jacobi(self, inp, degree):
        rep = co.verify_courant(inp, degree=degree)
        assert not rep["identities"]["jacobi"]["ok"]
        assert rep == courant_oracles.verify_courant(inp, degree=degree)


class TestPartialsOnce:
    """master_residuals and the anchor_of_D loop differentiate each
    operand once; they match the per-pair bodies they replaced
    (tests/bracket_oracles.py, tests/courant_oracles.py)."""

    @given(courant_inputs())
    @settings(max_examples=40, deadline=None)
    def test_master_residuals(self, inp):
        th = co.build_theta(inp)
        got = master_residuals(th.ctx, th.theta)
        want = bracket_oracles.master_residuals(th.ctx, th.theta)
        assert got["total"] == want["total"]
        assert got["components"] == want["components"]

    @given(courant_inputs(), st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_anchor_of_D(self, inp, degree):
        th = co.build_theta(inp)
        funs = co._q_monomials(th.gens, inp.m, degree)
        assert co._anchor_of_D_failures(th, funs) \
            == courant_oracles.anchor_of_D_failures(th, funs)

    @pytest.mark.parametrize("inp", [
        TWIST2, NONJACOBI_SO3,
        # all four bidegree parts: {phi, psi} != 0 in the (2, 2) component
        co.CourantInput(0, 3, c=EPS, c_bar=EPS, psi={(0, 1, 2): 1},
                        phi={(0, 1, 2): "1/2"}),
    ])
    def test_failing_inputs(self, inp):
        th = co.build_theta(inp)
        funs = co._q_monomials(th.gens, inp.m, 2)
        got = co._anchor_of_D_failures(th, funs)
        assert got == courant_oracles.anchor_of_D_failures(th, funs)
        res = master_residuals(th.ctx, th.theta)
        want = bracket_oracles.master_residuals(th.ctx, th.theta)
        assert not res["total"].is_zero()
        assert res["total"] == want["total"]
        assert res["components"] == want["components"]


class TestDerivedIdentities:
    """Invariance and defect are instances of the Jacobi identity of the
    bracket, so they hold for every chi-degree-3 charge, square-zero or
    not, and verify_courant brackets out only R = {Theta, Theta}."""

    @given(small_charges())
    @settings(max_examples=30, deadline=None)
    def test_random_charges(self, inp):
        th = co.build_theta(inp)
        assert courant_oracles.invariance_defect_failures(
            th.ctx, th.theta, co._section_family(th, 1)) \
            == {"invariance": [], "defect": []}

    @pytest.mark.parametrize("inp", [
        TWIST2,
        co.CourantInput(2, 2, rho={(0, 0): 1, (1, 1): "1 q1"},
                        gamma_conn={(0, 0, 1): "1 q2", (1, 1, 0): 1}),
        co.CourantInput(2, 2, rho={(0, 1): "1 q2"}, rho_bar={(1, 0): 1},
                        c={(0, 1, 1): "1 q1"}, c_bar={(0, 1, 0): 2},
                        gamma_conn={(0, 1, 0): "1 q2", (1, 0, 1): "1 q1",
                                    (1, 1, 1): -1}),
    ])
    def test_curved_connections(self, inp):
        th = co.build_theta(inp)
        g = th.gens
        assert not th.ctx.bracket(g.gen(g.even[2]), g.gen(g.even[3])) \
            .is_zero()
        assert courant_oracles.invariance_defect_failures(
            th.ctx, th.theta, co._section_family(th, 1)) \
            == {"invariance": [], "defect": []}

    @staticmethod
    def count_work(monkeypatch):
        """{method: calls} of BracketContext.contract and right_partials
        made inside derived_identity_failures."""
        counts, inside = {"contract": 0, "right_partials": 0}, []
        for name in counts:
            def counted(self, *args, f=getattr(BracketContext, name),
                        name=name):
                if inside:
                    counts[name] += 1
                return f(self, *args)
            monkeypatch.setattr(BracketContext, name, counted)

        def failures(*args, f=co.derived_identity_failures):
            inside.append(True)
            try:
                return f(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(co, "derived_identity_failures", failures)
        return counts

    def test_no_bracket_when_square_zero(self, monkeypatch):
        counts = self.count_work(monkeypatch)
        for degree in (1, 2):
            assert co.verify_courant(ct.standard_courant(2),
                                     degree=degree)["ok"]
        assert counts == {"contract": 0, "right_partials": 0}

    def test_jacobiators_from_residual(self, monkeypatch):
        counts = self.count_work(monkeypatch)
        rep = co.verify_courant(NONJACOBI_SO3)
        assert not rep["identities"]["jacobi"]["ok"]
        n = len(co._section_family(co.build_theta(NONJACOBI_SO3), 1))
        assert n == 6
        assert counts == {"contract": n + n ** 2 + n ** 3,
                          "right_partials": 1 + n + n ** 2}


class TestSectionFamily:
    @pytest.mark.parametrize("m, degree, count", [
        (0, 3, 1), (1, 3, 4), (2, 1, 3), (2, 2, 6), (2, 3, 10), (3, 2, 10),
    ])
    def test_q_monomials_are_distinct(self, m, degree, count):
        gens = phase_generators(m, 1)
        monos = co._q_monomials(gens, m, degree)
        texts = [to_text(f) for f in monos]
        assert len(texts) == len(set(texts)) == count

    def test_q_monomial_order(self):
        gens = phase_generators(2, 1)
        assert [to_text(f) for f in co._q_monomials(gens, 2, 3)] == [
            "1", "1 q1", "1 q2", "1 q1^2", "1 q1 q2", "1 q2^2", "1 q1^3",
            "1 q1^2 q2", "1 q1 q2^2", "1 q2^3"]

    def test_sections_on_a_plane_at_degree_three(self):
        th = co.build_theta(ct.standard_courant(2))
        assert len(co._section_family(th, 3)) == 40
        assert len(co._two_form_basis(th, 3)) == 10


class TestDerivedBracket:
    """On the standard structure the derived bracket must reproduce the
    coordinate formula for vector-field-plus-one-form sections."""

    def setup_method(self):
        self.th = co.build_theta(ct.standard_courant(3))
        self.g = self.th.gens

    def vec(self, fs):
        return sum((f * self.th.lower(a) for a, f in enumerate(fs)),
                   self.th.zero())

    def form(self, fs):
        return sum((f * self.th.upper(a) for a, f in enumerate(fs)),
                   self.th.zero())

    def oracle(self, Xc, xic, Yc, etac):
        g = self.g

        def d(f, i):
            return f.partial_even(g.even[i])

        z = g.zero()
        brk = [sum((Xc[i] * d(Yc[a], i) - Yc[i] * d(Xc[a], i)
                    for i in range(3)), z) for a in range(3)]
        lie = [sum((Xc[i] * d(etac[a], i) + etac[i] * d(Xc[i], a)
                    for i in range(3)), z) for a in range(3)]
        iyd = [sum((Yc[i] * (d(xic[a], i) - d(xic[i], a))
                    for i in range(3)), z) for a in range(3)]
        return self.vec(brk) + self.form([lie[a] - iyd[a]
                                          for a in range(3)])

    def test_vector_one_form_bracket(self):
        rng = random.Random(7)
        for _ in range(60):
            Xc = [base_poly(self.g, rng, 3) for _ in range(3)]
            xic = [base_poly(self.g, rng, 3) for _ in range(3)]
            Yc = [base_poly(self.g, rng, 3) for _ in range(3)]
            etac = [base_poly(self.g, rng, 3) for _ in range(3)]
            e1 = self.vec(Xc) + self.form(xic)
            e2 = self.vec(Yc) + self.form(etac)
            got = ct.courant_bracket(self.th, e1, e2)
            assert got == self.oracle(Xc, xic, Yc, etac)

    def test_pairing_formula(self):
        rng = random.Random(8)
        Xc = [base_poly(self.g, rng, 3) for _ in range(3)]
        xic = [base_poly(self.g, rng, 3) for _ in range(3)]
        Yc = [base_poly(self.g, rng, 3) for _ in range(3)]
        etac = [base_poly(self.g, rng, 3) for _ in range(3)]
        e1 = self.vec(Xc) + self.form(xic)
        e2 = self.vec(Yc) + self.form(etac)
        want = sum((Xc[a] * etac[a] + Yc[a] * xic[a] for a in range(3)),
                   self.g.zero())
        assert ct.pairing(self.th, e1, e2) == want

    def test_anchor_is_vector_part(self):
        rng = random.Random(9)
        Xc = [base_poly(self.g, rng, 3) for _ in range(3)]
        xic = [base_poly(self.g, rng, 3) for _ in range(3)]
        f = base_poly(self.g, rng, 3)
        e = self.vec(Xc) + self.form(xic)
        want = sum((Xc[i] * f.partial_even(self.g.even[i])
                    for i in range(3)), self.g.zero())
        assert ct.anchor_apply(self.th, e, f) == want

    def test_d_fun_is_exterior_derivative_of_function(self):
        f = self.g.gen(self.g.even[0]) * self.g.gen(self.g.even[1])
        want = self.form([self.g.gen(self.g.even[1]),
                          self.g.gen(self.g.even[0]), self.g.zero()])
        assert ct.d_fun(self.th, f) == want


class TestDifferential:
    def setup_method(self):
        self.th = co.build_theta(ct.standard_courant(3))
        self.g = self.th.gens

    def de_rham(self, om):
        out = self.th.zero()
        for i in range(3):
            out = out + self.th.upper(i) * om.partial_even(self.g.even[i])
        return out

    def test_d_L_matches_de_rham_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            om = random_two_form(self.th, rng)
            assert co.d_L(self.th, om) == self.de_rham(om)

    def test_d_L_squares_to_zero(self):
        rng = random.Random(12)
        for th in (self.th, co.build_theta(ct.so3_double()),
                   co.build_theta(ct.lie_bialgebra(EPS, {}, 3))):
            for _ in range(10):
                om = random_two_form(th, rng)
                assert co.d_L(th, co.d_L(th, om)).is_zero()

    def test_mc_residual_iff_closed(self):
        rng = random.Random(13)
        seen_closed = seen_open = 0
        for trial in range(20):
            om = random_two_form(self.th, rng)
            if trial % 4 == 0:
                # force a closed one: constant-coefficient forms
                om = random_two_form(self.th, rng, polynomial=False)
            series = FormalSeries(3, [self.th.zero(), om], self.th.zero())
            res = ct.mc_residual_dirac(self.th, series)
            closed = self.de_rham(om).is_zero()
            assert res.is_zero() == closed
            seen_closed += closed
            seen_open += not closed
        assert seen_closed and seen_open


class TestTOmega:
    def test_two_code_paths_agree(self):
        rng = random.Random(17)
        th = co.build_theta(ct.so3_double())
        for _ in range(25):
            om = random_two_form(th, rng)
            assert ct.t_omega(th, om) == \
                courant_oracles.t_omega_direct(th, om)

    def test_vanishes_without_psi(self):
        rng = random.Random(18)
        th = co.build_theta(ct.lie_bialgebra(EPS, EPS and {}, 3))
        for _ in range(5):
            om = random_two_form(th, rng)
            assert ct.t_omega(th, om).is_zero()

    def test_rank_two_form_gives_zero(self):
        # a decomposable 2-form has rank 2; its cube annihilates psi
        th = co.build_theta(ct.so3_double())
        om = th.upper(0) * th.upper(1)
        assert ct.t_omega(th, om).is_zero()


class TestUniversalIdentity:
    def test_constant_forms(self):
        rng = random.Random(19)
        th = co.build_theta(ct.so3_double())
        for _ in range(20):
            om = random_two_form(th, rng)
            assert ct.universal_identity_check(th, om).is_zero()

    def test_polynomial_forms(self):
        rng = random.Random(20)
        th = co.build_theta(ct.standard_courant(2))
        for _ in range(10):
            om = random_two_form(th, rng)
            assert ct.universal_identity_check(th, om).is_zero()

    def test_non_solution_still_passes(self):
        th = co.build_theta(ct.standard_courant(3))
        g = th.gens
        om = g.gen(g.even[2]) * th.upper(0) * th.upper(1)  # not closed
        series = FormalSeries(1, [th.zero(), om], th.zero())
        assert not ct.mc_residual_dirac(th, series).is_zero()
        assert ct.universal_identity_check(th, om).is_zero()


class TestDeform:
    def test_standard_closed_form_extends_trivially(self):
        th = co.build_theta(ct.standard_courant(3))
        g = th.gens
        om = g.gen(g.even[2]) * th.upper(0) * th.upper(1) \
            - g.gen(g.even[0]) * th.upper(1) * th.upper(2)
        assert co.d_L(th, om).is_zero()
        coeffs, certs = co.deform_series_dirac(th, [om], 4)
        assert [c.status for c in certs] == ["EXTENDS"] * 3
        assert all(c.cocycle.is_zero() for c in certs)
        series = FormalSeries(4, [th.zero()] + coeffs, th.zero())
        assert ct.mc_residual_dirac(th, series).is_zero()

    def test_so3_double_extends(self):
        th = co.build_theta(ct.so3_double())
        om = th.upper(0) * th.upper(1)
        coeffs, certs = co.deform_series_dirac(th, [om], 4)
        assert all(c.extends for c in certs)
        series = FormalSeries(4, [th.zero()] + coeffs, th.zero())
        assert ct.mc_residual_dirac(th, series).is_zero()

    def test_obstructed_bialgebra(self):
        # trivial lower algebra, so(3) constants on the upper side: the
        # differential vanishes while the quadratic term does not
        th = co.build_theta(ct.lie_bialgebra({}, EPS, 3))
        om = th.upper(0) * th.upper(1)
        cert = ct.deform_extend_dirac(th, [om])
        assert cert.status == "OBSTRUCTED"
        assert not cert.extends
        assert cert.order == 2
        assert not cert.cocycle.is_zero()
        assert cert.witness is not None and cert.solution is None
        assert cert.verify()

    def test_obstruction_matches_rank_oracle(self):
        # with mu = 0 the image of d_L is zero, so extendability is
        # exactly vanishing of the quadratic term
        th = co.build_theta(ct.lie_bialgebra({}, EPS, 3))
        rng = random.Random(23)
        verdicts = set()
        for _ in range(10):
            om = random_two_form(th, rng)
            cert = ct.deform_extend_dirac(th, [om])
            quad = ct.dual_bracket(th, om, om)
            assert cert.extends == quad.is_zero()
            assert cert.verify()
            verdicts.add(cert.status)
        assert "OBSTRUCTED" in verdicts

    def test_precondition_checked(self):
        th = co.build_theta(ct.standard_courant(3))
        g = th.gens
        om = g.gen(g.even[2]) * th.upper(0) * th.upper(1)
        with pytest.raises(PreconditionMC):
            ct.deform_extend_dirac(th, [om])

    def test_obstruction_cocycle_closed(self):
        rng = random.Random(29)
        for th in (co.build_theta(ct.so3_double()),
                   co.build_theta(ct.lie_bialgebra({}, EPS, 3))):
            for _ in range(5):
                om = random_two_form(th, rng)
                if not co.d_L(th, om).is_zero():
                    continue
                cert = ct.deform_extend_dirac(th, [om])
                assert co.d_L(th, cert.cocycle).is_zero()

    def test_certificate_exclusivity(self):
        th = co.build_theta(ct.so3_double())
        z = th.zero()
        d = ct.deform_extend_dirac(th, []).differential
        with pytest.raises(ValueError):
            ObstructionCertificate(d, 2, z)
        with pytest.raises(ValueError):
            ObstructionCertificate(d, 2, z, solution=z, witness=[])


class TestReparametrize:
    def setup_method(self):
        self.th = co.build_theta(ct.so3_double())
        om = self.th.upper(0) * self.th.upper(1)
        self.om = om
        self.series = FormalSeries(
            3, [self.th.zero(), om, self.th.zero(), self.th.zero()],
            self.th.zero())
        self.lam = self.th.lower(0) * self.th.lower(1)

    def test_zero_bivector_is_identity(self):
        out = ct.reparametrize_complement(self.th, self.th.zero(),
                                          self.series)
        for i in range(4):
            assert out[i] == self.series[i]

    def test_neumann_terms(self):
        th, om, lam = self.th, self.om, self.lam
        out = ct.reparametrize_complement(th, lam, self.series)
        z = th.zero()
        W = ct._to_matrix(th, om, True, "omega", "a 2-form")
        L = ct._to_matrix(th, lam, False, "lam", "a bivector")
        wLw = ct._mat_mul_se(W, ct._mat_mul_se(L, W, z), z)
        wLwLw = ct._mat_mul_se(W, ct._mat_mul_se(L, wLw, z), z)
        assert out[1] == om
        assert out[2] == -ct._matrix_to_form(th, wLw)
        assert out[3] == ct._matrix_to_form(th, wLwLw)

    def test_inverse_round_trip(self):
        out = ct.reparametrize_complement(self.th, self.lam, self.series)
        back = ct.reparametrize_complement(self.th, -self.lam, out)
        for i in range(4):
            assert back[i] == self.series[i]

    def test_requires_order_zero_vanishing(self):
        bad = FormalSeries(1, [self.om, self.om], self.th.zero())
        with pytest.raises(co.ShapeError):
            ct.reparametrize_complement(self.th, self.lam, bad)


class TestQuasiLemma:
    def test_so3_double_passes(self):
        rep = ct.quasi_lemma_check(ct.so3_double())
        assert rep["ok"]
        assert set(rep["identities"]) == {"anchor_defect", "jacobiator",
                                          "psi_coherence"}

    def test_standard_passes(self):
        assert ct.quasi_lemma_check(ct.standard_courant(2))["ok"]

    def test_bialgebra_passes(self):
        assert ct.quasi_lemma_check(ct.lie_bialgebra(EPS, {}, 3))["ok"]

    def test_non_jacobi_upper_fails(self):
        bad = co.CourantInput(0, 3, c_bar={(0, 1, 2): 1, (1, 2, 0): 1,
                                           (2, 0, 0): 1})
        rep = ct.quasi_lemma_check(bad)
        assert not rep["ok"]
        assert not rep["identities"]["jacobiator"]["ok"]

    def test_raise_on_fail(self):
        bad = co.CourantInput(0, 3, c_bar={(0, 1, 2): 1, (1, 2, 0): 1,
                                           (2, 0, 0): 1})
        with pytest.raises(co.AxiomViolation):
            ct.quasi_lemma_check(bad, raise_on_fail=True)

    def test_dual_bracket_jacobi_without_psi(self):
        th = co.build_theta(ct.lie_bialgebra({}, EPS, 3))
        forms = [th.upper(a) for a in range(3)]
        for a in forms:
            for b in forms:
                for c in forms:
                    jac = ct.dual_bracket(th, ct.dual_bracket(th, a, b), c) \
                        + ct.dual_bracket(th, ct.dual_bracket(th, b, c), a) \
                        + ct.dual_bracket(th, ct.dual_bracket(th, c, a), b)
                    assert jac.is_zero()


class TestSerialization:
    def test_round_trip(self):
        inp = co.CourantInput(
            2, 3, rho={(0, 0): "1 q1", (1, 2): 1},
            rho_bar={(0, 1): "1/2"},
            c=EPS, c_bar={(0, 1, 0): "1 q2"},
            psi={(0, 1, 2): Fraction(-1, 4)},
            gamma_conn={(0, 0, 1): "1 q1 q2"})
        back = co.CourantInput.from_json(inp.to_json())
        assert back.rho == inp.rho
        assert back.rho_bar == inp.rho_bar
        assert back.c == inp.c
        assert back.c_bar == inp.c_bar
        assert back.psi == inp.psi
        assert back.phi == inp.phi
        assert back.gamma_conn == inp.gamma_conn

    @given(courant_inputs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, inp):
        back = co.CourantInput.from_json(inp.to_json())
        for name in ("rho", "rho_bar", "c", "c_bar", "psi", "phi",
                     "gamma_conn"):
            assert getattr(back, name) == getattr(inp, name)
        assert back.to_json() == inp.to_json()

    def test_json_is_plain_data(self):
        import json
        obj = ct.so3_double().to_json()
        again = json.loads(json.dumps(obj))
        back = co.CourantInput.from_json(again)
        assert back.psi == ct.so3_double().psi
