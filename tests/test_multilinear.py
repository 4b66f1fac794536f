import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
import lie_oracles
from lie_oracles import jacobiator
import ratlin_oracles as oracle
from hypothesis import given, settings, strategies as st

from diracdeform import multilinear as ml
from diracdeform.multilinear import (
    DimMismatch,
    MultiMap,
    NonSymMultiMap,
    NotLie,
    base_gens,
    cohomology_dims,
    is_lie,
    nr_bracket,
    structure_constants_from_json,
)
from diracdeform.algebroid import (
    AnchorNotSurjective,
    BundleMismatch,
    FormalSeries,
    GrassmannDerivation,
    MultiDerivation,
    algebraic_decompose,
    ce_differential,
    cm_bracket,
    cohomology,
    form_generators,
    gerstenhaber_bracket,
    grassmann_L,
    grassmann_R,
    insertion_operator,
    iso_I,
    iso_I_inv,
    lie_operator,
    multiderivation_of_multimap,
    multimap_of_multiderivation,
    multivector_generators,
    tangent_d,
    tensorial_of_symbol,
    tm_bracket_structure,
)
from lie_oracles import structure_constants_to_json
from diracdeform.algebroid import _poly_to_form
from diracdeform.brackets import SCHOUTEN, BracketContext
from diracdeform.superalg import NotHomogeneous


def so3():
    return MultiMap(2, 3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0),
                           (1, 2): (1, 0, 0)})


def heisenberg():
    return MultiMap(2, 3, {(0, 1): (0, 0, 1)})


small_frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def multimaps(n, dim, max_entries=5):
    idx_pool = list(itertools.combinations(range(dim), n))

    def build(entries):
        c = {}
        for which, vec in entries:
            if idx_pool:
                c[idx_pool[which % len(idx_pool)]] = tuple(vec)
        return MultiMap(n, dim, c)

    entry = st.tuples(st.integers(0, max(len(idx_pool) - 1, 0)),
                      st.lists(small_frac, min_size=dim, max_size=dim))
    return st.lists(entry, max_size=max_entries).map(build)


def nonsym_multimaps(n, dim, max_entries=5):
    idx_pool = list(itertools.product(range(dim), repeat=n))

    def build(entries):
        c = {}
        for which, vec in entries:
            if idx_pool:
                c[idx_pool[which % len(idx_pool)]] = tuple(vec)
        return NonSymMultiMap(n, dim, c)

    entry = st.tuples(st.integers(0, max(len(idx_pool) - 1, 0)),
                      st.lists(small_frac, min_size=dim, max_size=dim))
    return st.lists(entry, max_size=max_entries).map(build)


def random_entries(rng, cls, n, dim, entries=3):
    """A cls map with up to `entries` random coordinate vectors."""
    pool = list(itertools.product(range(dim), repeat=n)
                if cls is NonSymMultiMap
                else itertools.combinations(range(dim), n))
    return cls(n, dim, {
        idx: tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                   for _ in range(dim))
        for idx in rng.sample(pool, min(entries, len(pool)))})


class TestSparseInsertion:
    """The sparse insertion against the dense bodies it replaced: every
    index tuple, every shuffle, every basis triple.  The seeded sweeps
    visit every pair of arities; the hypothesis tests add empty maps."""

    @pytest.mark.parametrize("dim", range(1, 6))
    def test_nr_diamond_sweep(self, dim):
        rng = random.Random(dim)
        for m, n in itertools.product(range(4), repeat=2):
            for _ in range(3):
                f = random_entries(rng, MultiMap, m, dim)
                g = random_entries(rng, MultiMap, n, dim)
                assert ml.nr_diamond(f, g) == lie_oracles.nr_diamond(f, g)

    @pytest.mark.parametrize("dim", range(1, 4))
    def test_gerstenhaber_sweep(self, dim):
        rng = random.Random(dim)
        for m, n in itertools.product(range(4), repeat=2):
            for _ in range(3):
                f = random_entries(rng, NonSymMultiMap, m, dim)
                g = random_entries(rng, NonSymMultiMap, n, dim)
                assert gerstenhaber_bracket(f, g) \
                    == lie_oracles.gerstenhaber_bracket(f, g)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_nr_diamond_matches_dense(self, data):
        dim = data.draw(st.integers(1, 5))
        f = data.draw(multimaps(data.draw(st.integers(0, 3)), dim))
        g = data.draw(multimaps(data.draw(st.integers(0, 3)), dim))
        assert ml.nr_diamond(f, g) == lie_oracles.nr_diamond(f, g)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_gerstenhaber_matches_dense(self, data):
        dim = data.draw(st.integers(1, 3))
        f = data.draw(nonsym_multimaps(data.draw(st.integers(0, 3)), dim))
        g = data.draw(nonsym_multimaps(data.draw(st.integers(0, 3)), dim))
        assert gerstenhaber_bracket(f, g) \
            == lie_oracles.gerstenhaber_bracket(f, g)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_failing_triple_matches_scan(self, data):
        dim = data.draw(st.integers(1, 5))
        mu = data.draw(multimaps(2, dim, max_entries=4))
        assert ml.first_failing_triple(mu) \
            == lie_oracles.first_failing_triple(mu)

    def test_first_failing_triple_on_seeded_structures(self):
        # sparse random constants: most break Jacobi, and the first
        # failing triple is spread over the whole lexicographic order
        rng = random.Random(15)
        seen = set()
        for _ in range(200):
            dim = rng.randint(3, 5)
            pairs = list(itertools.combinations(range(dim), 2))
            mu = MultiMap(2, dim, {
                pair: tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.3
                            else Fraction(0) for _ in range(dim))
                for pair in rng.sample(pairs, rng.randint(0, 3))})
            triple = ml.first_failing_triple(mu)
            assert triple == lie_oracles.first_failing_triple(mu)
            seen.add(triple)
        assert None in seen and (0, 1, 2) in seen
        assert len(seen - {None, (0, 1, 2)}) >= 5

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_linear_composition_is_insertion(self, data):
        dim = data.draw(st.integers(1, 5))
        lm = data.draw(multimaps(1, dim))
        f = data.draw(multimaps(data.draw(st.integers(0, 3)), dim))
        assert ml.nr_diamond(lm, f) == lie_oracles.compose_linear(lm, f)


class TestNR:
    def test_zero(self):
        mu = MultiMap.zero(2, 3)
        assert nr_bracket(mu, mu).is_zero()

    def test_so3_square_zero(self):
        mu = so3()
        assert is_lie(mu)
        assert nr_bracket(mu, mu).is_zero()

    def test_single_constant_vs_jacobiator(self):
        mu = MultiMap(2, 3, {(1, 2): (1, 0, 0)})
        # add a term breaking Jacobi
        mu = mu + MultiMap(2, 3, {(0, 1): (0, 1, 0)})
        sq = nr_bracket(mu, mu)
        for x, y, z in itertools.combinations(range(3), 3):
            jac = jacobiator(mu, x, y, z)
            val = sq.eval_indices((x, y, z))
            assert val == tuple(2 * t for t in jac)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            nr_bracket(MultiMap.zero(2, 3), MultiMap.zero(2, 2))

    @given(multimaps(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_jacobi_equivalence(self, mu):
        assert nr_bracket(mu, mu).is_zero() == is_lie(mu)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_super_jacobi(self, data):
        dim = 2
        na = data.draw(st.integers(1, 3))
        nb = data.draw(st.integers(1, 3))
        nc = data.draw(st.integers(1, 3))
        f = data.draw(multimaps(na, dim, 3))
        g = data.draw(multimaps(nb, dim, 3))
        h = data.draw(multimaps(nc, dim, 3))
        a, b, c = na - 1, nb - 1, nc - 1
        lhs = nr_bracket(f, nr_bracket(g, h))
        m1 = nr_bracket(nr_bracket(f, g), h)
        m2 = nr_bracket(g, nr_bracket(f, h))
        assert lhs == m1 + ((-1) ** (a * b)) * m2

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_graded_antisymmetry(self, data):
        f = data.draw(multimaps(data.draw(st.integers(1, 3)), 2, 3))
        g = data.draw(multimaps(data.draw(st.integers(1, 3)), 2, 3))
        sign = (-1) ** ((f.n - 1) * (g.n - 1))
        assert nr_bracket(f, g) == (-sign) * nr_bracket(g, f)


class TestGerstenhaber:
    def test_matrix_multiplication_associative(self):
        # 2x2 matrices: basis E_{ab} flattened as 2*a + b
        c = {}
        for a in range(2):
            for b in range(2):
                for p in range(2):
                    for q in range(2):
                        if b == p:
                            c[(2 * a + b, 2 * p + q)] = tuple(
                                Fraction(1) if t == 2 * a + q else Fraction(0)
                                for t in range(4))
        mu = NonSymMultiMap(2, 4, c)
        assert gerstenhaber_bracket(mu, mu).is_zero()

    def test_zero(self):
        mu = NonSymMultiMap.zero(2, 3)
        assert gerstenhaber_bracket(mu, mu).is_zero()

    def test_nonassociative_table(self):
        # mu(e0,e0) = e1, mu(e1,e0) = e0: (e0 e0) e0 = e0, e0 (e0 e0) = 0
        mu = NonSymMultiMap(2, 2, {(0, 0): (0, 1), (1, 0): (1, 0)})
        sq = gerstenhaber_bracket(mu, mu)
        assert not sq.is_zero()
        # [mu,mu]_G = 2 * associator
        for idx in itertools.product(range(2), repeat=3):
            x, y, z = idx
            left = mu.eval_indices((x, y))
            lval = [sum(left[g] * mu.eval_indices((g, z))[t]
                        for g in range(2)) for t in range(2)]
            right = mu.eval_indices((y, z))
            rval = [sum(right[g] * mu.eval_indices((x, g))[t]
                        for g in range(2)) for t in range(2)]
            assoc = tuple(2 * (a - b) for a, b in zip(lval, rval))
            assert sq.eval_indices(idx) == assoc


class TestMalformed:
    @pytest.mark.parametrize("key", [(0, 5), (-1, 0)])
    def test_index_outside_range(self, key):
        with pytest.raises(ValueError):
            MultiMap(2, 3, {key: (1, 0, 0)})

    def test_value_of_wrong_length(self):
        with pytest.raises(ValueError):
            NonSymMultiMap(2, 3, {(0, 0): (1,)})

    def test_gerstenhaber_of_vectors_is_zero(self):
        u = NonSymMultiMap(0, 2, {(): (1, 2)})
        v = NonSymMultiMap(0, 2, {(): (0, 1)})
        assert gerstenhaber_bracket(u, v) == NonSymMultiMap.zero(0, 2)

    def test_gerstenhaber_with_a_vector_stays_exact(self):
        # inserting v into the second slot carries the sign (-1)^{-1}
        mu = NonSymMultiMap(2, 2, {(0, 1): (Fraction(1, 3), 0)})
        v = NonSymMultiMap(0, 2, {(): (0, 1)})
        br = gerstenhaber_bracket(mu, v)
        assert br == NonSymMultiMap(1, 2, {(0,): (Fraction(-1, 3), 0)})
        assert all(type(x) is Fraction for vec in br.c.values() for x in vec)


class TestCE:
    def test_abelian(self):
        mu = MultiMap.zero(2, 3)
        f = MultiMap(1, 3, {(0,): (0, 1, 0), (2,): (1, 0, 0)})
        assert ce_differential(mu, f).is_zero()

    def test_so3_identity_cochain(self):
        mu = so3()
        ident = MultiMap(1, 3, {(i,): tuple(Fraction(1) if t == i else 0
                                            for t in range(3))
                                for i in range(3)})
        d = ce_differential(mu, ident)
        assert d == mu
        assert ce_differential(mu, d).is_zero()

    def test_not_lie(self):
        mu = MultiMap(2, 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)})
        assert not is_lie(mu)
        with pytest.raises(NotLie):
            ce_differential(mu, MultiMap.zero(1, 3))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sign_relation_and_square(self, data):
        mu = heisenberg()
        n = data.draw(st.integers(0, 3))
        f = data.draw(multimaps(n, 3))
        d = ce_differential(mu, f)
        expected = lie_oracles.ce_differential(mu, f)
        assert d == expected
        assert nr_bracket(mu, f) == ((-1) ** (n + 1)) * expected
        assert ce_differential(mu, d).is_zero()


class TestCohomology:
    def test_abelian(self):
        mu = MultiMap.zero(2, 3)
        for k in range(4):
            dim, reps = cohomology(mu, k)
            import math
            assert dim == math.comb(3, k) * 3
            assert len(reps) == dim

    def test_so3_h2_zero(self):
        dim, reps = cohomology(so3(), 2)
        assert dim == 0
        assert reps == []

    def test_heisenberg_h2_positive(self):
        mu = heisenberg()
        dim, reps = cohomology(mu, 2)
        # oracle: rank-nullity with independently computed ranks
        M2 = lie_oracles.delta_matrix(mu, 2)
        M1 = lie_oracles.delta_matrix(mu, 1)
        ndom = len(ml._cochain_basis(2, 3))
        expected = ndom - oracle.rank(M2) - oracle.rank(M1)
        assert dim == expected
        assert dim > 0
        for r in reps:
            assert ce_differential(mu, r).is_zero()

    def test_representatives_not_coboundaries(self):
        mu = heisenberg()
        dim, reps = cohomology(mu, 2)
        from diracdeform.ratlin import Subspace
        M1 = lie_oracles.delta_matrix(mu, 1)
        cod = ml._cochain_basis(2, 3)
        im = Subspace(len(cod), [list(col) for col in zip(*M1)])
        for r in reps:
            assert not im.contains_vector(lie_oracles.to_vector(r, cod))


def filiform(n):
    """Model filiform algebra: [e0, ei] = e(i+1) for 1 <= i <= n-2."""
    return MultiMap(2, n, {(0, i): tuple(int(t == i + 1) for t in range(n))
                           for i in range(1, n - 1)})


def sl2():
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h on the basis (h, e, f)
    return MultiMap(2, 3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2),
                           (1, 2): (1, 0, 0)})


LIE_FIXTURES = {
    "abelian3": MultiMap.zero(2, 3),
    "aff1": MultiMap(2, 2, {(0, 1): (0, 1)}),
    "so3": so3(),
    "heisenberg": heisenberg(),
    "sl2": sl2(),
    "so3+R": MultiMap(2, 4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, -1, 0, 0),
                             (1, 2): (1, 0, 0, 0)}),
    "filiform4": filiform(4),
    "filiform5": filiform(5),
    "filiform6": filiform(6),
}


def greedy_representatives(mu, k):
    """The representative search that cohomology used to run: one dense
    RREF of span + v per kernel vector v, from the dense oracles."""
    ndom = len(ml._cochain_basis(k, mu.dim))
    ker_rows = oracle.kernel_vectors(lie_oracles.delta_matrix(mu, k), ndom)
    R, piv = oracle.rref(ker_rows)
    span = [list(col) for col in
            zip(*lie_oracles.delta_matrix(mu, k - 1))] if k else []
    S, p = oracle.rref(span)
    span = S[:len(p)]
    reps = []
    for v in R[:len(piv)]:
        S, p = oracle.rref(span + [v])
        if len(p) > len(span):
            span = S[:len(p)]
            reps.append(v)
    return reps


class TestSparseDelta:
    @pytest.mark.parametrize("name", sorted(LIE_FIXTURES))
    def test_columns_match_ce_differential(self, name):
        mu = LIE_FIXTURES[name]
        for k in range(mu.dim + 1):
            units = ml._unit_cochains(k, mu.dim)
            cols = ml._delta_columns(mu.terms, mu.dim, k)
            assert cols == [lie_oracles.ce_differential(mu, f).terms
                            for f in units]
            assert cols == [((-1) ** (k + 1) * nr_bracket(mu, f)).terms
                            for f in units]

    @pytest.mark.parametrize("name", sorted(LIE_FIXTURES))
    def test_square_zero(self, name):
        mu = LIE_FIXTURES[name]
        for k in range(mu.dim):
            pos = {key: i for i, key in
                   enumerate(ml._cochain_basis(k + 1, mu.dim))}
            nxt = ml._delta_columns(mu.terms, mu.dim, k + 1)
            for col in ml._delta_columns(mu.terms, mu.dim, k):
                out = {}
                for key, v in col.items():
                    for key2, w in nxt[pos[key]].items():
                        out[key2] = out.get(key2, 0) + v * w
                assert not any(out.values())

    @pytest.mark.parametrize("name", sorted(LIE_FIXTURES))
    def test_representatives_match_greedy_oracle(self, name):
        mu = LIE_FIXTURES[name]
        for k in range(min(mu.dim, 3) + 1):
            dom = ml._cochain_basis(k, mu.dim)
            hdim, reps = cohomology(mu, k)
            assert [lie_oracles.to_vector(r, dom) for r in reps] \
                == greedy_representatives(mu, k)
            assert hdim == len(reps)

    def test_representatives_use_the_integer_delta(self, monkeypatch):
        # cohomology ranks and reduces the delta of D mu, D the lcm of
        # mu's denominators: it has mu's kernel and image, so the same
        # representatives, and int columns
        from diracdeform import algebroid
        seen = []
        columns = algebroid._delta_columns

        def recorded(terms, dim, k):
            seen.append({type(v) for v in terms.values()})
            return columns(terms, dim, k)

        mu = filiform(6)
        want = [cohomology(mu, k) for k in range(4)]
        monkeypatch.setattr(algebroid, "_delta_columns", recorded)
        assert [cohomology(Fraction(3, 2) * mu, k) for k in range(4)] \
            == want
        assert seen and all(types == {int} for types in seen)

    @pytest.mark.parametrize("n, k, expected", [(8, 3, 40), (9, 2, 29)])
    def test_filiform_pins(self, n, k, expected):
        mu = filiform(n)
        assert cohomology(mu, k)[0] == expected
        assert cohomology_dims(mu, [k]) == [expected]
        # cross-check by floating-point rank: dim H^k = n_k - rk d^k -
        # rk d^{k-1}; the entries are small integers, so float rank is exact
        ranks = [np.linalg.matrix_rank(
            np.array(lie_oracles.delta_matrix(mu, j), dtype=float))
            for j in (k, k - 1)]
        assert len(ml._cochain_basis(k, n)) - sum(ranks) == expected


@st.composite
def lie_algebras(draw):
    """Lie structures on up to 5 dimensions that satisfy Jacobi by
    construction: a 2-step nilpotent one (brackets of the first p basis
    vectors land in the span of the others, which are central), an
    almost abelian one (ad e_0 a random matrix on the span of
    e_1, ..., every other bracket 0), or a fixture."""
    kind = draw(st.sampled_from(["nilpotent", "almost abelian", "fixture"]))
    if kind == "fixture":
        return draw(st.sampled_from(sorted(LIE_FIXTURES.items())))[1]
    dim = draw(st.integers(1, 5))
    entry = st.lists(small_frac, min_size=dim, max_size=dim)
    if kind == "nilpotent":
        p = draw(st.integers(0, dim))
        pairs = draw(st.lists(st.sampled_from(
            list(itertools.combinations(range(p), 2)) or [None]),
            max_size=4))
        c = {}
        for pair in pairs:
            if pair is not None:
                vec = draw(entry)
                c[pair] = tuple(v if t >= p else 0
                                for t, v in enumerate(vec))
        return MultiMap(2, dim, c)
    return MultiMap(2, dim, {(0, i): (0,) + tuple(draw(entry))[1:]
                             for i in range(1, dim)})


class TestDeltaMatrixOracle:
    """lie_oracles.delta_matrix, built row by row, against the matrix of
    one ce_differential per unit cochain."""

    @staticmethod
    def check(mu):
        for k in range(mu.dim + 1):
            assert lie_oracles.delta_matrix(mu, k) \
                == lie_oracles.delta_matrix_by_cochain(mu, k)

    @given(lie_algebras())
    @settings(max_examples=40, deadline=None)
    def test_random_lie_algebras(self, mu):
        self.check(mu)

    def test_filiform_5(self):
        self.check(filiform(5))


class TestDeltaColumnsOracle:
    """_delta_columns, built from mu's tables on bit masks, against two
    generic sparse insertions per unit cochain (lie_oracles)."""

    @given(lie_algebras())
    @settings(max_examples=80, deadline=None)
    def test_random_lie_algebras(self, mu):
        # mu's Fractions, as the solves of lie_deform pass them, and the
        # ints of D mu, as both cohomology questions do; every degree
        # from 0 to dim + 1, where the columns are empty
        for terms in (mu.terms, ml._integer_terms(mu)):
            for k in range(mu.dim + 2):
                cols = ml._delta_columns(terms, mu.dim, k)
                want = lie_oracles.delta_columns(terms, mu.dim, k)
                assert cols == want
                assert [{key: type(v) for key, v in col.items()}
                        for col in cols] \
                    == [{key: type(v) for key, v in col.items()}
                        for col in want]


class TestCohomologyDims:
    @given(lie_algebras(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ranks_match_the_full_computation(self, mu, data):
        # unsorted and repeated degrees, with 0, dim and dim + 1 among
        # them, next to the kernel basis and representatives of each
        degrees = data.draw(st.lists(st.integers(0, mu.dim + 1),
                                     max_size=4))
        degrees += [mu.dim + 1, mu.dim, 0, degrees[0] if degrees else 1]
        full = [cohomology(mu, k) for k in degrees]
        assert cohomology_dims(mu, degrees) \
            == lie_oracles.cohomology_dims(mu, degrees) \
            == [h for h, _ in full] == [len(reps) for _, reps in full]

    @pytest.mark.parametrize("n, expected", [(10, [36, 85]),
                                             (12, [53, 156]),
                                             (14, [72, 257])])
    def test_filiform_pins(self, n, expected):
        assert cohomology_dims(filiform(n), [2, 3]) == expected

    def test_each_delta_built_once(self, monkeypatch):
        built = []
        columns = ml._delta_columns

        def counted(terms, dim, k):
            built.append(k)
            # the structure reaches the builder scaled to integers
            assert all(type(v) is int for v in terms.values())
            return columns(terms, dim, k)

        monkeypatch.setattr(ml, "_delta_columns", counted)
        assert cohomology_dims(filiform(6), [3, 1, 2, 1]) == [14, 6, 12, 6]
        assert sorted(built) == [0, 1, 2, 3]

    @given(lie_algebras(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scaling_mu_keeps_the_dims(self, mu, data):
        # delta is linear in mu, so c mu has the ranks of mu for c != 0;
        # a c with a large denominator exercises the integer scaling
        c = data.draw(st.fractions(max_denominator=10 ** 12)
                      .filter(lambda c: c != 0))
        degrees = list(range(mu.dim + 2))
        assert cohomology_dims(c * mu, degrees) \
            == cohomology_dims(mu, degrees)

    def test_not_lie(self):
        with pytest.raises(NotLie):
            cohomology_dims(MultiMap(2, 3, {(0, 1): (1, 0, 0),
                                            (0, 2): (0, 0, 1)}), [1])


class TestJSON:
    def test_round_trip(self):
        mu = so3()
        data = structure_constants_to_json(mu)
        assert structure_constants_from_json(data) == mu

    def test_antisymmetry_enforced(self):
        mu = structure_constants_from_json(
            {"dim": 3, "c": [[1, 0, 2, "-1"]]})
        assert mu.eval_indices((0, 1)) == (0, 0, Fraction(1))

    def test_conflict_raises(self):
        with pytest.raises(ValueError):
            structure_constants_from_json(
                {"dim": 3, "c": [[0, 1, 2, "1"], [1, 0, 2, "1"]]})

    def test_text_input(self):
        mu = structure_constants_from_json(
            '{"dim": 2, "c": [[0, 1, 0, "1/2"]]}')
        assert mu.eval_indices((0, 1)) == (Fraction(1, 2), 0)


# ---------------------------------------------------------------------------
# multiderivations
# ---------------------------------------------------------------------------

def random_poly(rng, gens, max_deg=1):
    out = gens.zero()
    for _ in range(rng.randint(0, 2)):
        coeff = Fraction(rng.randint(-3, 3))
        powers = {}
        deg = rng.randint(0, max_deg)
        for _ in range(deg):
            if gens.even:
                powers[rng.choice(gens.even)] = \
                    powers.get(rng.choice(gens.even), 0) + 1
        out = out + gens.monomial(coeff, powers)
    return out


def random_md(rng, gens, m, k, degree, max_deg=1):
    frame = {}
    for idx in itertools.combinations(range(k), degree + 1):
        frame[idx] = tuple(random_poly(rng, gens, max_deg)
                           for _ in range(k))
    symbol = {}
    if degree >= 0:
        for idx in itertools.combinations(range(k), degree):
            symbol[idx] = tuple(random_poly(rng, gens, max_deg)
                                for _ in range(m))
    if degree == -1:
        return MultiDerivation(gens, m, k, -1, frame)
    return MultiDerivation(gens, m, k, degree, frame, symbol)


def random_section(rng, gens, k, max_deg=1):
    return tuple(random_poly(rng, gens, max_deg) for _ in range(k))


class TestMultiDerivation:
    def test_frame_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            MultiDerivation(base_gens(0), 0, 3, 1, {(0, 5): (1, 0, 0)})

    @pytest.mark.parametrize("key", [(3,), (-1,)])
    def test_symbol_index_out_of_range(self, key):
        with pytest.raises(ValueError, match=re.escape(str(key))):
            MultiDerivation(base_gens(1), 1, 3, 1, symbol={key: (1,)})

    def test_leibniz_last_slot(self):
        rng = random.Random(3)
        gens = base_gens(2)
        D = random_md(rng, gens, 2, 2, 1)
        for seed in range(5):
            r2 = random.Random(seed)
            s1 = random_section(r2, gens, 2)
            s2 = random_section(r2, gens, 2)
            f = random_poly(r2, gens, 2)
            lhs = D.evaluate([s1, tuple(f * c for c in s2)])
            base = D.evaluate([s1, s2])
            corr = D.sigma_apply([s1], f)
            rhs = tuple(f * b + corr * c for b, c in zip(base, s2))
            assert lhs == rhs

    def test_leibniz_first_slot_sign(self):
        rng = random.Random(5)
        gens = base_gens(1)
        D = random_md(rng, gens, 1, 2, 1)
        r2 = random.Random(11)
        s1 = random_section(r2, gens, 2)
        s2 = random_section(r2, gens, 2)
        f = random_poly(r2, gens, 2)
        lhs = D.evaluate([tuple(f * c for c in s1), s2])
        base = D.evaluate([s1, s2])
        corr = D.sigma_apply([s2], f)
        # D(f s1, s2) = f D(s1,s2) + (-1)^{n-1} sigma(s2)(f) s1, n = 2
        rhs = tuple(f * b - corr * c for b, c in zip(base, s1))
        assert lhs == rhs

    def test_antisymmetry_of_evaluation(self):
        rng = random.Random(7)
        gens = base_gens(2)
        D = random_md(rng, gens, 2, 3, 1)
        r2 = random.Random(2)
        s1 = random_section(r2, gens, 3)
        s2 = random_section(r2, gens, 3)
        a = D.evaluate([s1, s2])
        b = D.evaluate([s2, s1])
        assert all((x + y).is_zero() for x, y in zip(a, b))

    def test_wrong_section_count_is_a_value_error(self):
        D = tm_bracket_structure(2)
        s = D.basis_section(0)
        with pytest.raises(ValueError, match="expected 2 sections, got 1"):
            D.evaluate([s])
        with pytest.raises(ValueError, match="expected 1 sections, got 2"):
            D.sigma([s, s])

    def test_point_case_matches_multimap(self):
        f = so3()
        D = multiderivation_of_multimap(f)
        assert multimap_of_multiderivation(D) == f
        gens = D.gens
        s = [D.basis_section(0), D.basis_section(1)]
        val = D.evaluate(s)
        assert [next(iter(v.terms.values())) if v.terms else 0
                for v in val] == [0, 0, 1]


class TestCMBracket:
    def test_point_case_sign_vs_nr(self):
        rng = random.Random(1)
        gens = base_gens(0)
        for seed in range(8):
            r = random.Random(seed)
            na, nb = r.randint(1, 3), r.randint(1, 3)
            dim = 3

            def rand_mm(n):
                c = {}
                for idx in itertools.combinations(range(dim), n):
                    c[idx] = tuple(Fraction(r.randint(-2, 2))
                                   for _ in range(dim))
                return MultiMap(n, dim, c)

            f, g = rand_mm(na), rand_mm(nb)
            p, q = na - 1, nb - 1
            lhs = cm_bracket(multiderivation_of_multimap(f, gens),
                             multiderivation_of_multimap(g, gens))
            rhs = multiderivation_of_multimap(
                ((-1) ** (p * q)) * nr_bracket(f, g), gens)
            assert lhs == rhs

    def test_lie_structure_square_zero(self):
        D = multiderivation_of_multimap(so3())
        assert cm_bracket(D, D).is_zero()

    def test_tm_structure_square_zero(self):
        m = tm_bracket_structure(2)
        assert cm_bracket(m, m).is_zero()

    def test_bundle_mismatch(self):
        with pytest.raises(BundleMismatch):
            cm_bracket(tm_bracket_structure(2), tm_bracket_structure(3))

    def test_bracket_matches_direct_evaluation(self):
        # the frame/symbol tables of the bracket reproduce the shuffle
        # composition on arbitrary polynomial sections
        gens = base_gens(2)
        for seed in range(6):
            rng = random.Random(seed)
            p = rng.randint(0, 1)
            q = rng.randint(0, 1)
            D1 = random_md(rng, gens, 2, 2, p)
            D2 = random_md(rng, gens, 2, 2, q)
            B = cm_bracket(D1, D2)
            secs = [random_section(rng, gens, 2) for _ in range(p + q + 1)]
            direct = tuple(
                ((-1) ** (p * q)) * a - b
                for a, b in zip(lie_oracles._cm_circ(D1, D2, secs),
                                lie_oracles._cm_circ(D2, D1, secs)))
            assert B.evaluate(secs) == direct

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_shuffle_oracle(self, data):
        # sections included: a pair of degrees (-1, q) has q >= 0
        m = data.draw(st.integers(0, 2))
        k = data.draw(st.integers(1, 3))
        p = data.draw(st.integers(-1, 2))
        q = data.draw(st.integers(0 if p < 0 else -1, 2))
        rng = data.draw(st.randoms(use_true_random=False))
        gens = base_gens(m)
        D1 = random_md(rng, gens, m, k, p)
        D2 = random_md(rng, gens, m, k, q)
        assert cm_bracket(D1, D2) == lie_oracles.cm_bracket(D1, D2)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_derived_identity(self, p):
        # [...[[D, s_0], s_1]..., s_p] = (-1)^{p(p+1)/2} D(s_0, ..., s_p):
        # each step is [D, s] = (-1)^{deg D} D(s, .)
        m, k = 2, 3
        gens = base_gens(m)
        rng = random.Random(p)
        for _ in range(4):
            D = random_md(rng, gens, m, k, p)
            secs = [random_section(rng, gens, k) for _ in range(p + 1)]
            acc = D
            for s in secs:
                acc = cm_bracket(acc, MultiDerivation(gens, m, k, -1, {(): s}))
            value = MultiDerivation(gens, m, k, -1, {(): D.evaluate(secs)})
            assert acc == ml._psign(p * (p + 1) // 2) * value

    def test_graded_antisymmetry(self):
        gens = base_gens(1)
        rng = random.Random(9)
        for p, q in [(0, 0), (0, 1), (1, 1), (-1, 1)]:
            D1 = random_md(rng, gens, 1, 2, p)
            D2 = random_md(rng, gens, 1, 2, q)
            sign = ml._psign(p * q)
            assert cm_bracket(D1, D2) == (-sign) * cm_bracket(D2, D1)

    def test_h_tm_vanishing(self):
        # every closed multiderivation of the tangent model is exact:
        # a primitive is read off the symbol
        m = 2
        gens = base_gens(m)
        mstruct = tm_bracket_structure(m, gens)
        for seed in range(4):
            rng = random.Random(seed)
            C = random_md(rng, gens, m, m, rng.randint(0, 1))
            D = cm_bracket(mstruct, C)
            assert cm_bracket(mstruct, D).is_zero()
            p = D.degree
            primitive = ((-1) ** (p + 1)) * tensorial_of_symbol(D)
            assert cm_bracket(mstruct, primitive) == D


# ---------------------------------------------------------------------------
# Grassmann derivations
# ---------------------------------------------------------------------------

class TestGrassmann:
    def test_L_of_section_is_insertion(self):
        gens = base_gens(1)
        fgens = form_generators(1, 2)
        x = gens.gen("x1")
        s = (x, gens.one())
        D = MultiDerivation(gens, 1, 2, -1, {(): s})
        L = grassmann_L(D, fgens)
        assert L.kdeg == -1
        # L(s) = -i_s: -i_s e^b = -s^b
        e1 = fgens.gen("e1")
        assert L.apply(e1) == -_poly_to_form(x, fgens)
        # superderivation on a product form
        e2 = fgens.gen("e2")
        assert L.apply(e1 * e2) == -(_poly_to_form(x, fgens) * e2
                                     - e1 * fgens.one())

    def test_point_case_action(self):
        # sigma = 0: L_D omega = -omega o D on one-forms
        gens = base_gens(0)
        D = multiderivation_of_multimap(so3(), gens)
        fgens = form_generators(0, 3)
        L = grassmann_L(D, fgens)
        # L(e^3)(a_1, a_2) = -e^3([a_1, a_2]) = -1
        e = [fgens.gen(f"e{t + 1}") for t in range(3)]
        assert L.fe[2] == -(e[0] * e[1])

    def test_mutually_inverse(self):
        gens = base_gens(2)
        for seed in range(6):
            rng = random.Random(seed)
            deg = rng.choice([-1, 0, 1, 2])
            D = random_md(rng, gens, 2, 3, min(deg, 2))
            L = grassmann_L(D)
            assert grassmann_R(L, gens) == D

    def test_inverse_other_direction(self):
        fgens = form_generators(2, 2)
        gens = base_gens(2)
        rng = random.Random(4)
        for kdeg in (0, 1):
            fx = [_poly_to_form(random_poly(rng, gens), fgens)
                  * fgens.monomial(1, odd_names=[fgens.odd[t]
                                                 for t in range(kdeg)])
                  for _ in range(2)]
            fe = [_poly_to_form(random_poly(rng, gens), fgens)
                  * fgens.monomial(1, odd_names=[fgens.odd[t]
                                                 for t in range(kdeg + 1)])
                  for _ in range(2)]
            Df = GrassmannDerivation(fgens, 2, 2, kdeg, fx, fe)
            assert grassmann_L(grassmann_R(Df, gens), fgens) == Df

    def test_commutator_identity(self):
        gens = base_gens(1)
        for seed in range(8):
            rng = random.Random(seed)
            p = rng.randint(-1, 2)
            q = rng.randint(0 if p < 0 else -1, 2)
            D1 = random_md(rng, gens, 1, 2, p)
            D2 = random_md(rng, gens, 1, 2, q)
            lhs = grassmann_L(D1).commutator(grassmann_L(D2))
            rhs = grassmann_L(cm_bracket(D1, D2))
            assert lhs == rhs

    def test_superderivation_law(self):
        gens = base_gens(2)
        rng = random.Random(12)
        D = random_md(rng, gens, 2, 2, 1)
        L = grassmann_L(D)
        fgens = L.fgens
        x1 = fgens.gen("x1")
        e1, e2 = fgens.gen("e1"), fgens.gen("e2")
        alpha = x1 * e1
        beta = e2 + x1 * x1 * e1
        lhs = L.apply(alpha * beta)
        rhs = L.apply(alpha) * beta + ((-1) ** (1 * L.kdeg)) * \
            alpha * L.apply(beta)
        assert lhs == rhs


class TestExactScalars:
    """A scalar is a rational number: MultiMap and the algebroid
    scalings coerce it through ratlin.frac, which refuses a float (and
    an element, whose degree the scaled object would not record)."""

    def objects(self):
        D = random_md(random.Random(3), base_gens(2), 2, 2, 1)
        zero = MultiMap.zero(2, 3)
        return (so3(), D, grassmann_L(D, form_generators(2, 2)),
                FormalSeries(1, [zero, so3()], zero))

    def test_floats_are_refused(self):
        mu, D, L, series = self.objects()
        for make in (lambda: MultiMap(2, 2, {(0, 1): (0.1, 0)}),
                     lambda: NonSymMultiMap(0, 2, {(): (1, 0.5)}),
                     lambda: mu * 0.5, lambda: 0.5 * mu,
                     lambda: D * 0.5, lambda: 0.5 * D,
                     lambda: L * 0.5, lambda: 0.5 * L,
                     lambda: series.scale(0.5),
                     lambda: L * L.fgens.gen("e1"),
                     lambda: D * D.gens.gen("x1")):
            with pytest.raises(TypeError):
                make()

    def test_int_scalars_match_fractions(self):
        mu, D, L, series = self.objects()
        for c in (-2, 0, 3):
            for x in (mu, D, L):
                assert x * c == x * Fraction(c) == Fraction(c) * x == c * x
            assert series.scale(c) == series.scale(Fraction(c))
        assert MultiMap(2, 2, {(0, 1): (1, 0)}) == \
            MultiMap(2, 2, {(0, 1): (Fraction(1), Fraction(0))})


class TestAlgebraicDecompose:
    def test_d_itself(self):
        fgens = form_generators(2, 2)
        d = tangent_d(fgens, 2)
        K, L = algebraic_decompose(d)
        gens = base_gens(2)
        assert L == {}
        assert K == {(0,): (gens.one(), gens.zero()),
                     (1,): (gens.zero(), gens.one())}

    def test_insertion_recovered(self):
        gens = base_gens(2)
        fgens = form_generators(2, 2)
        rng = random.Random(8)
        Ldata = {}
        for idx in itertools.combinations(range(2), 2):
            Ldata[idx] = tuple(random_poly(rng, gens) for _ in range(2))
        D = insertion_operator(fgens, 2, 2, Ldata, 1)
        K, L = algebraic_decompose(D)
        assert K == {}
        pruned = {i: v for i, v in Ldata.items()
                  if any(not p.is_zero() for p in v)}
        assert L == pruned

    def test_lie_of_vector_field(self):
        gens = base_gens(2)
        fgens = form_generators(2, 2)
        X = (gens.gen("x2"), gens.one())
        D = lie_operator(fgens, 2, {(): X}, 0)
        K, L = algebraic_decompose(D)
        assert K == {(): X}
        assert L == {}

    def test_random_reconstruction(self):
        gens = base_gens(2)
        fgens = form_generators(2, 2)
        rng = random.Random(21)
        D = random_md(rng, gens, 2, 2, 1)
        Df = grassmann_L(D, fgens)
        K, L = algebraic_decompose(Df)
        back = lie_operator(fgens, 2, K, Df.kdeg) + \
            insertion_operator(fgens, 2, 2, L, Df.kdeg)
        assert back == Df

    def test_anchor_not_surjective(self):
        fgens = form_generators(1, 2)
        D = GrassmannDerivation.zero(fgens, 1, 2, 0)
        with pytest.raises(AnchorNotSurjective):
            algebraic_decompose(D)


# ---------------------------------------------------------------------------
# iso_I
# ---------------------------------------------------------------------------

def random_linear_multivector(rng, m, k, kdeg, max_xdeg=1):
    """Random element of fiber weight 1 - kdeg and odd degree kdeg."""
    gens = multivector_generators(m, k)
    out = gens.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-2, 2))
        xpow = {}
        for _ in range(rng.randint(0, max_xdeg)):
            xpow[f"x{rng.randint(1, m)}"] = 1
        if rng.random() < 0.5 and kdeg >= 1:
            # basic coefficient, one xh and kdeg-1 vh
            gam = rng.sample(range(k), kdeg - 1) if kdeg - 1 <= k else None
            if gam is None:
                continue
            odd = [f"xh{rng.randint(1, m)}"] + \
                [f"vh{a + 1}" for a in sorted(gam)]
            out = out + gens.monomial(coeff, xpow, odd)
        else:
            if kdeg > k:
                continue
            alpha = sorted(rng.sample(range(k), kdeg))
            beta = rng.randint(1, k)
            xpow[f"v{beta}"] = 1
            out = out + gens.monomial(
                coeff, xpow, [f"vh{a + 1}" for a in alpha])
    return out


class TestIsoI:
    def test_I0_linear_function(self):
        m, k = 2, 2
        gens = multivector_generators(m, k)
        base = base_gens(m)
        P = gens.gen("v1") * gens.gen("x2") + 3 * gens.gen("v2")
        D = iso_I(P, m, k, base)
        assert D.degree == -1
        assert D.frame[()] == (base.gen("x2"), base.scalar(3))

    def test_so3_linear_poisson(self):
        # the linear tensor whose image is the so(3) bracket
        m, k = 0, 3
        gens = multivector_generators(m, k)
        eps = {(0, 1): 2, (0, 2): 1, (1, 2): 0}
        sgn = {(0, 1): 1, (0, 2): -1, (1, 2): 1}
        P = gens.zero()
        for (a, b), g in eps.items():
            P = P - sgn[(a, b)] * gens.monomial(
                1, {f"v{g + 1}": 1}, [f"vh{a + 1}", f"vh{b + 1}"])
        D = iso_I(P, m, k)
        assert multimap_of_multiderivation(D) == so3()

    def test_not_homogeneous(self):
        m, k = 1, 1
        gens = multivector_generators(m, k)
        P = gens.gen("v1") * gens.gen("v1")  # weight 2, degree 0
        with pytest.raises(NotHomogeneous):
            iso_I(P, m, k)

    def test_wrong_generators(self):
        gens = multivector_generators(2, 1)
        with pytest.raises(BundleMismatch):
            iso_I(gens.gen("v1"), 1, 1)

    def test_round_trip(self):
        for seed in range(8):
            rng = random.Random(seed)
            m, k = 2, 2
            kdeg = rng.randint(0, 2)
            P = random_linear_multivector(rng, m, k, kdeg)
            if P.is_zero():
                continue
            D = iso_I(P, m, k)
            assert iso_I_inv(D) == P

    def test_round_trip_other_direction(self):
        gens = base_gens(2)
        for seed in range(5):
            rng = random.Random(seed + 100)
            D = random_md(rng, gens, 2, 2, rng.randint(0, 1))
            P = iso_I_inv(D)
            assert iso_I(P, 2, 2, gens) == D

    @given(st.integers(0, 2), st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_direct_inverse_matches_the_solve(self, m, k, data):
        """iso_I_inv's formula against the linear solve it replaced, on
        random multiderivations of every degree -1..k-1."""
        degree = data.draw(st.integers(-1, k - 1))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        D = random_md(rng, base_gens(m), m, k, degree, max_deg=2)
        P = iso_I_inv(D)
        assert P == lie_oracles.iso_I_inv(D)
        if not P.is_zero():     # the zero field has no degree
            assert iso_I(P, m, k) == D

    def test_bracket_compatibility(self):
        m, k = 2, 2
        gens = multivector_generators(m, k)
        ctx = BracketContext(SCHOUTEN, gens,
                             conjugate={i: i for i in range(m + k)})
        checked = 0
        for seed in range(12):
            rng = random.Random(seed)
            p = rng.randint(0, 2)
            q = rng.randint(1 if p == 0 else 0, 2)
            P = random_linear_multivector(rng, m, k, p)
            Q = random_linear_multivector(rng, m, k, q)
            if P.is_zero() or Q.is_zero():
                continue
            PQ = ctx.schouten(P, Q)
            sign = -1 if (p - 1) * (q - 1) % 2 else 1
            rhs = sign * cm_bracket(iso_I(P, m, k), iso_I(Q, m, k))
            if PQ.is_zero():
                assert rhs.is_zero()
                continue
            assert iso_I(PQ, m, k) == rhs
            checked += 1
        assert checked >= 6

    def test_schouten_transport_of_cm(self):
        # cm_bracket on R^1 x R^2 equals the transported Schouten bracket
        m, k = 1, 2
        gens = multivector_generators(m, k)
        ctx = BracketContext(SCHOUTEN, gens,
                             conjugate={i: i for i in range(m + k)})
        checked = 0
        for seed in range(40):
            rng = random.Random(seed)
            P = random_linear_multivector(rng, m, k, 2)
            Q = random_linear_multivector(rng, m, k, 1)
            PQ = ctx.schouten(P, Q)
            if PQ.is_zero():
                continue
            D1, D2 = iso_I(P, m, k), iso_I(Q, m, k)
            transported = iso_I(PQ, m, k)
            assert cm_bracket(D1, D2) == ((-1) ** ((2 - 1) * (1 - 1))) * \
                transported
            checked += 1
        assert checked >= 5
