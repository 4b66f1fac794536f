import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from diracdeform import dirac_linear as dl
from diracdeform import dirac_theory as dt
from diracdeform import ratlin
from diracdeform.ratlin import Subspace

import dirac_oracles as oracle


def rand_antisym(rng, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-3, 3))
            M[i][j] = v
            M[j][i] = -v
    return M


def rand_matrix(rng, r, c):
    return [[Fraction(rng.randint(-2, 2)) for _ in range(c)]
            for _ in range(r)]


def rand_dirac(rng, n):
    """Arbitrary Dirac structure via range + form."""
    k = rng.randint(0, n)
    R = Subspace(n, rand_matrix(rng, k, n))
    return dt.from_R_Omega(R, rand_antisym(rng, R.dim))


@st.composite
def antisymmetric(draw, n):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(draw(st.integers(-3, 3)),
                               draw(st.integers(1, 2)))
            M[j][i] = -M[i][j]
    return M


@st.composite
def matrices(draw, r, c):
    return [[Fraction(draw(st.integers(-2, 2))) for _ in range(c)]
            for _ in range(r)]


@st.composite
def dirac_structures(draw, n=None):
    """A Dirac structure on Q^n (n in 0..4 unless given), from a two-form,
    a bivector or a range and form."""
    n = draw(st.integers(0, 4)) if n is None else n
    kind = draw(st.sampled_from(["two_form", "bivector", "range"]))
    if kind == "two_form":
        return dl.from_two_form(draw(antisymmetric(n)))
    if kind == "bivector":
        return dl.from_bivector(draw(antisymmetric(n)))
    R = Subspace(n, draw(matrices(draw(st.integers(0, n)), n)))
    return dt.from_R_Omega(R, draw(antisymmetric(R.dim)))


@st.composite
def middle_subspaces(draw):
    """(n, an n-dimensional subspace of Q^2n), n in 0..4: the basis of a
    Dirac structure, perhaps with one entry changed, or n random rows."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        rows = [list(v) for v in draw(dirac_structures(n)).subspace.basis]
        if n and draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 2 * n - 1))
            rows[i][j] += draw(st.sampled_from([-1, Fraction(1, 2), 2]))
    else:
        rows = draw(matrices(n, 2 * n))
    S = Subspace(2 * n, rows)
    assume(S.dim == n)
    return n, S


def verdict(check, *args):
    """The NotDirac message that check(*args) raises, or None."""
    try:
        check(*args)
    except dl.NotDirac as e:
        return str(e)
    return None


class TestAgainstOracles:
    """The flip-derived V*-side constructions against their written-out
    twins in dirac_oracles, and the integer echelon rows against the
    Fraction bodies they replaced."""

    @given(dirac_structures())
    @settings(max_examples=60, deadline=None)
    def test_flip_is_an_involution(self, L):
        F = dl.flip(L)
        assert dl.LinearDirac(F.n, F.subspace) == F and F.n == L.n
        assert dl.flip(F) == L
        assert F.subspace == Subspace(2 * L.n, [
            v[L.n:] + v[:L.n] for v in L.subspace.basis])
        assert dl.range_of(F) == oracle.corange_pi(L)[0]

    @given(dirac_structures())
    @settings(max_examples=60, deadline=None)
    def test_range_and_intersect_V(self, L):
        assert dl.range_of(L) == Subspace(L.n, [v[:L.n]
                                                for v in L.subspace.basis])
        assert dl.intersect_V(L) == oracle.intersect_V(L)

    @given(st.integers(0, 4))
    def test_intersect_V_of_V_and_V_star(self, n):
        V, V_star = dt.space_V(n), dt.space_V_star(n)
        assert dl.intersect_V(V) == oracle.intersect_V(V) == \
            Subspace(n, dt.identity(n))
        assert dl.intersect_V(V_star) == oracle.intersect_V(V_star)
        assert dl.intersect_V(V_star).dim == 0

    @given(middle_subspaces())
    @settings(max_examples=200, deadline=None)
    def test_isotropy_check(self, nS):
        n, S = nS
        assert verdict(dl.LinearDirac, n, S) == verdict(oracle.check_dirac,
                                                        n, S)

    @given(st.integers(0, 4))
    def test_space_V_star(self, n):
        assert dt.space_V_star(n) == oracle.space_V_star(n)

    @given(st.integers(0, 4).flatmap(antisymmetric))
    @settings(max_examples=40, deadline=None)
    def test_from_bivector(self, pi):
        assert dl.from_bivector(pi) == oracle.from_bivector(pi)

    @given(dirac_structures())
    @settings(max_examples=60, deadline=None)
    def test_intersect_V_star(self, L):
        assert dt.intersect_V_star(L) == oracle.intersect_V_star(L)

    @given(dirac_structures())
    @settings(max_examples=60, deadline=None)
    def test_corange_half_of_represent(self, L):
        rep = dt.represent(L)
        assert (rep["corange"], rep["pi"]) == oracle.corange_pi(L)
        assert dt.from_K_pi(rep["K"], rep["corange"], rep["pi"]) == \
            oracle.from_K_pi(rep["K"], rep["corange"], rep["pi"]) == L

    @given(dirac_structures(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_from_K_pi_rejects_a_wrong_kernel(self, L, data):
        rep = dt.represent(L)
        n = L.n
        K = Subspace(n, data.draw(matrices(data.draw(st.integers(0, n)), n)))
        assume(K != rep["K"])
        for build in (dt.from_K_pi, oracle.from_K_pi):
            with pytest.raises(dl.NotDirac):
                build(K, rep["corange"], rep["pi"])

    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_backward_map_every_shape(self, nw, nv, data):
        phi = data.draw(matrices(nw, nv))
        L = data.draw(dirac_structures(nw))
        got = dt.backward_map(phi, L)
        assert got == oracle.backward_map(phi, L)
        assert got.n == (nv if nw else 0)


class TestBasics:
    def test_pairing_signature(self):
        for n in (1, 2, 3):
            assert dt.PairedSpace(n).signature() == (n, n, 0)

    def test_zero_two_form_is_V(self):
        n = 3
        z = [[Fraction(0)] * n for _ in range(n)]
        assert dl.from_two_form(z) == dt.space_V(n)

    def test_zero_bivector_is_V_star(self):
        n = 3
        z = [[Fraction(0)] * n for _ in range(n)]
        assert dl.from_bivector(z) == dt.space_V_star(n)

    def test_symplectic_graph_n2(self):
        w = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
        L = dl.from_two_form(w)
        # columns of w attached to basis vectors
        expect = Subspace(4, [[1, 0, 0, -1], [0, 1, 1, 0]])
        assert L.subspace == expect
        ps = dt.PairedSpace(2)
        for u in L.subspace.basis:
            for v in L.subspace.basis:
                assert ps.pair(u, v) == 0

    def test_not_antisymmetric(self):
        with pytest.raises(dl.NotAntisymmetric):
            dl.from_two_form([[Fraction(1)]])

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            dl.from_two_form([[0, 0.1], [-0.1, 0]])
        assert dl.from_two_form([[0, 1], [-1, 0]]) == \
            dl.from_two_form([[Fraction(0), Fraction(1)],
                              [Fraction(-1), Fraction(0)]])

    def test_not_dirac_rejected(self):
        with pytest.raises(dl.NotDirac):
            dl.LinearDirac(2, Subspace(4, [[1, 0, 1, 0]]))
        with pytest.raises(dl.NotDirac):
            dl.LinearDirac(2, Subspace(4, [[1, 0, 0, 0], [0, 0, 1, 0]]))

    def test_every_random_dirac_valid(self):
        rng = random.Random(0)
        ps_cache = {}
        for _ in range(50):
            n = rng.randint(1, 4)
            L = rand_dirac(rng, n)
            assert L.subspace.dim == n
            ps = ps_cache.setdefault(n, dt.PairedSpace(n))
            for u in L.subspace.basis:
                for v in L.subspace.basis:
                    assert ps.pair(u, v) == 0


class TestRepresent:
    def test_graph_two_form(self):
        rng = random.Random(1)
        for n in (2, 3):
            w = rand_antisym(rng, n)
            L = dl.from_two_form(w)
            rep = dt.represent(L)
            assert rep["R"] == Subspace(n, dt.identity(n))
            # Omega in the standard basis equals the defining form
            assert [[rep["Omega"][a][b] for b in range(n)]
                    for a in range(n)] == \
                [[sum(Fraction(0) + w[j][b] * (1 if j == a else 0)
                      for j in range(n)) for b in range(n)]
                 for a in range(n)] or True
            # Omega(e_a, e_b) = eta_a(e_b) = w[b][a]... check via pairing
            for a in range(n):
                for b in range(n):
                    assert rep["Omega"][a][b] == w[b][a]
            assert rep["K"] == ratlin.kernel_basis(
                [[w[j][i] for i in range(n)] for j in range(n)])

    def test_graph_bivector(self):
        rng = random.Random(2)
        n = 3
        p = rand_antisym(rng, n)
        L = dl.from_bivector(p)
        rep = dt.represent(L)
        assert rep["K"].dim == 0
        im = Subspace(n, [[p[j][i] for j in range(n)] for i in range(n)])
        assert rep["R"] == im

    def test_space_V(self):
        n = 3
        rep = dt.represent(dt.space_V(n))
        assert rep["R"] == Subspace(n, dt.identity(n))
        assert all(all(x == 0 for x in row) for row in rep["Omega"])
        assert rep["K"] == Subspace(n, dt.identity(n))

    def test_round_trips_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 4)
            L = rand_dirac(rng, n)
            rep = dt.represent(L)
            assert dt.from_R_Omega(rep["R"], rep["Omega"]) == L
            assert dt.from_K_pi(rep["K"], rep["corange"], rep["pi"]) == L

    def test_range_annihilator_identity(self):
        # ann(rho(L)) = L cap V* and ann(corange) = L cap V
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(1, 4)
            L = rand_dirac(rng, n)
            rep = dt.represent(L)
            rows = [list(r) for r in rep["R"].basis]
            ann = ratlin.kernel_basis(rows) if rows else \
                Subspace(n, dt.identity(n))
            assert ann == dt.intersect_V_star(L)
            rows = [list(r) for r in rep["corange"].basis]
            ann = ratlin.kernel_basis(rows) if rows else \
                Subspace(n, dt.identity(n))
            assert ann == dl.intersect_V(L)


class TestDiracMaps:
    def test_identity_map(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 3)
            L = rand_dirac(rng, n)
            phi = dt.identity(n)
            assert dt.forward_map(phi, L) == L
            assert dt.backward_map(phi, L) == L

    def test_forward_of_bivector_graph(self):
        rng = random.Random(6)
        for _ in range(15):
            nv, nw = rng.randint(1, 3), rng.randint(1, 3)
            p = rand_antisym(rng, nv)
            phi = rand_matrix(rng, nw, nv)
            pushed = [[sum(phi[a][i] * p[i][j] * phi[b][j]
                           for i in range(nv) for j in range(nv))
                       for b in range(nw)] for a in range(nw)]
            assert dt.forward_map(phi, dl.from_bivector(p)) == \
                dl.from_bivector(pushed)

    def test_backward_of_two_form_graph(self):
        rng = random.Random(7)
        for _ in range(15):
            nv, nw = rng.randint(1, 3), rng.randint(1, 3)
            w = rand_antisym(rng, nw)
            phi = rand_matrix(rng, nw, nv)
            pulled = [[sum(phi[a][i] * w[a][b] * phi[b][j]
                           for a in range(nw) for b in range(nw))
                       for j in range(nv)] for i in range(nv)]
            assert dt.backward_map(phi, dl.from_two_form(w)) == \
                dl.from_two_form(pulled)

    def test_functoriality(self):
        rng = random.Random(8)
        for _ in range(15):
            n1, n2, n3 = (rng.randint(1, 3) for _ in range(3))
            phi = rand_matrix(rng, n2, n1)
            psi = rand_matrix(rng, n3, n2)
            comp = ratlin.mat_mul(psi, phi)
            L = rand_dirac(rng, n1)
            assert dt.forward_map(psi, dt.forward_map(phi, L)) == \
                dt.forward_map(comp, L)
            Lw = rand_dirac(rng, n3)
            assert dt.backward_map(phi, dt.backward_map(psi, Lw)) == \
                dt.backward_map(comp, Lw)

    def test_injective_left_inverse(self):
        rng = random.Random(9)
        # injective phi: back after forward is the identity
        phi = [[1, 0], [0, 1], [1, 1]]
        phi = [[Fraction(x) for x in r] for r in phi]
        for _ in range(10):
            L = rand_dirac(rng, 2)
            assert dt.backward_map(phi, dt.forward_map(phi, L)) == L

    def test_surjective_right_inverse(self):
        rng = random.Random(10)
        phi = [[1, 0, 1], [0, 1, 0]]
        phi = [[Fraction(x) for x in r] for r in phi]
        for _ in range(10):
            L = rand_dirac(rng, 2)
            assert dt.forward_map(phi, dt.backward_map(phi, L)) == L

    def test_non_inverse_witness(self):
        # a rank-1 endomorphism of Q^2 is neither injective nor surjective
        phi = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
        w = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
        L = dl.from_two_form(w)
        assert dt.forward_map(phi, L) == dt.space_V_star(2)
        assert dt.backward_map(phi, dt.forward_map(phi, L)) != L

    def test_shape_mismatch(self):
        with pytest.raises(dl.ShapeMismatch):
            dt.forward_map([[Fraction(1)]], rand_dirac(random.Random(0), 2))

    def test_forward_map_without_rows_reaches_the_zero_space(self):
        # the domain dimension comes from L, not from a first row of phi
        rng = random.Random(13)
        for n in range(4):
            L = rand_dirac(rng, n)
            got = dt.forward_map([], L)
            assert got.n == 0 and got == dt.space_V(0)
        L = rand_dirac(rng, 2)
        for phi in ([[Fraction(1)]], [[Fraction(1), Fraction(0)], [0]],
                    [[0, 0], [0, 0, 0]]):
            with pytest.raises(dl.ShapeMismatch):
                dt.forward_map(phi, L)


class TestRelations:
    def test_relation_agrees_with_explicit(self):
        rng = random.Random(11)
        for _ in range(20):
            nv, nw = rng.randint(1, 3), rng.randint(1, 3)
            phi = rand_matrix(rng, nw, nv)
            L = rand_dirac(rng, nv)
            assert oracle.forward_via_relation(phi, L) == dt.forward_map(phi, L)
            Lw = rand_dirac(rng, nw)
            assert oracle.backward_via_relation(phi, Lw) == \
                dt.backward_map(phi, Lw)

    def test_identity_relation_neutral(self):
        rng = random.Random(12)
        n = 3
        idrel = oracle.relation_of_map(dt.identity(n))
        L = rand_dirac(rng, n)
        assert oracle.dirac_of_relation(
            oracle.compose_relations(idrel, oracle.relation_of_dirac(L))) == L

    def test_relation_composition_functorial(self):
        rng = random.Random(13)
        for _ in range(10):
            n1, n2, n3 = (rng.randint(1, 2) for _ in range(3))
            phi = rand_matrix(rng, n2, n1)
            psi = rand_matrix(rng, n3, n2)
            lhs = oracle.compose_relations(oracle.relation_of_map(psi),
                                       oracle.relation_of_map(phi))
            rhs = oracle.relation_of_map(ratlin.mat_mul(psi, phi))
            assert lhs == rhs

    def test_factor_mismatch(self):
        r1 = oracle.relation_of_map(dt.identity(2))
        r2 = oracle.relation_of_map(dt.identity(3))
        with pytest.raises(oracle.FactorMismatch):
            oracle.compose_relations(r1, r2)


class TestHyperbolic:
    def test_minkowski(self):
        G = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        G = [[Fraction(x) for x in r] for r in G]
        assert dt.max_isotropic_dimension(G) == 1
        W = Subspace(4, [[1, 1, 0, 0]])
        vs, U = dt.hyperbolic_completion(G, W)
        assert len(vs) == 1
        assert dt._form_value(G, vs[0], vs[0]) == 0
        assert dt._form_value(G, W.basis[0], vs[0]) == 1
        assert U.dim == 2
        # already maximal: extension adds nothing
        assert dt.extend_isotropic(G, W) == W

    def test_signature_1_1(self):
        G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        W = Subspace(2, [[1, 1]])
        vs, U = dt.hyperbolic_completion(G, W)
        assert vs[0] == [Fraction(1, 2), Fraction(-1, 2)]
        assert U.dim == 0

    def test_trivial_W(self):
        G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        vs, U = dt.hyperbolic_completion(G, Subspace(2, []))
        assert vs == []
        assert U == Subspace(2, dt.identity(2))

    def test_pairing_table_random(self):
        rng = random.Random(14)
        n = 3
        ps = dt.PairedSpace(n)
        G = ps.pairing_matrix()
        for _ in range(20):
            L = rand_dirac(rng, n)
            k = rng.randint(0, n)
            W = Subspace(2 * n, [list(v) for v in L.subspace.basis[:k]])
            vs, U = dt.hyperbolic_completion(G, W)
            for i, vi in enumerate(vs):
                for j, vj in enumerate(vs):
                    assert dt._form_value(G, vi, vj) == 0
                for j, wj in enumerate(W.basis):
                    assert dt._form_value(G, wj, vi) == \
                        (1 if i == j else 0)
            assert U.dim == 2 * n - 2 * len(vs)
            for u in U.basis:
                for w in W.basis:
                    assert dt._form_value(G, u, w) == 0
                for v in vs:
                    assert dt._form_value(G, u, v) == 0

    def test_extend_in_split_pairing(self):
        n = 3
        G = dt.PairedSpace(n).pairing_matrix()
        W = Subspace(2 * n, [[1, 0, 0, 0, 0, 0]])
        ext = dt.extend_isotropic(G, W)
        assert ext.dim == n
        for u in ext.basis:
            for v in ext.basis:
                assert dt._form_value(G, u, v) == 0
        assert ext.contains(W)

    def test_not_isotropic(self):
        G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        with pytest.raises(dt.NotIsotropic):
            dt.hyperbolic_completion(G, Subspace(2, [[1, 0]]))

    def test_extend_with_large_square_ratio(self):
        c = 10**20 + 7
        G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-c * c, 9)]]
        ext = dt.extend_isotropic(G, Subspace(2, []))
        assert ext.dim == 1
        u = ext.basis[0]
        assert dt._form_value(G, u, u) == 0

    @pytest.mark.parametrize("q, root", [
        (Fraction((10**20 + 7) ** 2, 9), Fraction(10**20 + 7, 3)),
        (Fraction(10**400), Fraction(10**200)),
        (Fraction(0), Fraction(0)),
        (Fraction(4, 9), Fraction(2, 3)),
        (Fraction(2), None),
        (Fraction(4, 3), None),
        (Fraction(10**400 + 1), None),
        (Fraction(-4), None),
    ])
    def test_rational_sqrt(self, q, root):
        assert dt._rational_sqrt(q) == root


class TestGauge:
    def test_zero_gauge(self):
        rng = random.Random(15)
        L = rand_dirac(rng, 3)
        B = [[Fraction(0)] * 3 for _ in range(3)]
        assert dt.gauge_transform(B, L) == L

    def test_gauge_of_V_is_graph(self):
        rng = random.Random(16)
        B = rand_antisym(rng, 3)
        assert dt.gauge_transform(B, dt.space_V(3)) == dl.from_two_form(B)

    def test_gauge_composition(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(1, 3)
            B1, B2 = rand_antisym(rng, n), rand_antisym(rng, n)
            L = rand_dirac(rng, n)
            s = [[B1[i][j] + B2[i][j] for j in range(n)] for i in range(n)]
            assert dt.gauge_transform(B1, dt.gauge_transform(B2, L)) == \
                dt.gauge_transform(s, L)

    def test_gauge_is_isometry(self):
        rng = random.Random(18)
        n = 3
        ps = dt.PairedSpace(n)
        B = rand_antisym(rng, n)

        def tau(v):
            x, eta = v[:n], v[n:]
            bx = [sum(B[j][i] * x[i] for i in range(n)) for j in range(n)]
            return list(x) + [bx[j] + eta[j] for j in range(n)]

        for _ in range(10):
            u = [Fraction(rng.randint(-3, 3)) for _ in range(2 * n)]
            v = [Fraction(rng.randint(-3, 3)) for _ in range(2 * n)]
            assert ps.pair(tau(u), tau(v)) == ps.pair(u, v)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(19)
        L = rand_dirac(rng, 3)
        obj = oracle.dirac_to_json(L)
        assert dl.dirac_from_json(obj) == L

    def test_fraction_strings(self):
        S = Subspace(2, [[Fraction(2), Fraction(3)]])
        obj = dl.subspace_to_json(S)
        assert obj["basis"] == [["1", "3/2"]]
        assert dl.subspace_from_json(obj) == S
