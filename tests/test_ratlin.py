from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import ratlin_oracles as oracle
from diracdeform.ratlin import (
    Echelon,
    Subspace,
    frac,
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    pseudo_inverse,
    solve,
    solve_sparse,
    sparse_row,
    transpose,
)
from diracdeform.dirac_theory import (
    DegeneratePairing,
    annihilator,
    identity,
    signature_normal_form,
)
from ratlin_oracles import rank


def F(a, b=1):
    return Fraction(a, b)


small_frac = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_frac, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


class TestRank:
    def test_zero_matrix(self):
        assert rank([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0

    def test_identity(self):
        for n in range(1, 6):
            assert rank(identity(n)) == n

    def test_rank_one(self):
        assert rank([[1, 2], [2, 4], [3, 6]]) == 1

    def test_fractional_entries(self):
        M = mat([[F(1, 2), F(1, 3)], [F(3, 2), F(2, 3)]])
        # det = 1/3 - 1/2 != 0
        assert rank(M) == 2

    def test_so3_coboundary_rank(self):
        # delta^1 for the cross-product bracket on Q^3: the map from
        # linear maps Q^3 -> Q^3 (9 dims) to alternating 2-cochains
        # (9 dims) has rank 6 and kernel dimension 3.
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

        def bracket(x, y):
            return (
                x[1] * y[2] - x[2] * y[1],
                x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0],
            )

        # phi indexed by (a, b): phi(e_b) = e_a, columns of the matrix.
        cols = []
        for a in range(3):
            for b in range(3):
                col = []
                for i in range(3):
                    for j in range(i + 1, 3):
                        x, y = basis[i], basis[j]
                        # (delta phi)(x, y) = [x, phi y] - [y, phi x]
                        #                     - phi([x, y])
                        phix = tuple(basis[a][t] * x[b] for t in range(3))
                        phiy = tuple(basis[a][t] * y[b] for t in range(3))
                        br = bracket(x, y)
                        phibr = tuple(basis[a][t] * br[b] for t in range(3))
                        val = tuple(
                            bracket(x, phiy)[t]
                            - bracket(y, phix)[t]
                            - phibr[t]
                            for t in range(3)
                        )
                        col.extend(val)
                cols.append(col)
        M = transpose(cols)
        assert rank(M) == 6
        assert kernel_basis(M).dim == 3

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, M):
        ncols = len(M[0])
        assert rank(M) + kernel_basis(M).dim == ncols

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_transpose(self, M):
        assert rank(M) == rank(transpose(M))


def shaped_matrices(max_dim=6):
    """Rational matrices with 0..max_dim rows and columns (a 0-row matrix
    is []), either dense or mostly zero."""
    def build(r, c, sparse):
        entry = (st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                           st.just(Fraction(0)), small_frac)
                 if sparse else small_frac)
        return st.lists(st.lists(entry, min_size=c, max_size=c),
                        min_size=r, max_size=r)
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim),
                     st.booleans()).flatmap(lambda s: build(*s))


@st.composite
def integer_rows(draw):
    """Up to 12 sparse integer rows over 12 columns, entries up to 10^30
    in size: empty rows, repeats, multiples and sums of earlier rows."""
    entry = st.one_of(st.integers(-3, 3),
                      st.integers(-10 ** 30, 10 ** 30)).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["new", "multiple", "sum"])) \
            if rows else "new"
        if kind == "new":
            row = draw(st.dictionaries(st.integers(0, 11), entry,
                                       max_size=12))
        elif kind == "multiple":
            c = draw(st.integers(-3, 3).filter(bool))
            row = {j: c * x for j, x in draw(st.sampled_from(rows)).items()}
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = {j: a.get(j, 0) + b.get(j, 0) for j in {*a, *b}}
            row = {j: x for j, x in row.items() if x}
        rows.append(row)
    return rows


class TestFractionFreeRank:
    """The rank is len(Echelon): the fraction-free forward pass, checked
    against the dense Bareiss oracle."""

    def test_small(self):
        assert len(Echelon([])) == 0
        assert len(Echelon([{}, {}])) == 0
        assert len(Echelon([{0: 2, 1: 4}, {0: -3, 1: -6}])) == 1
        assert len(Echelon([{0: 2, 1: 4}, {0: 3, 1: 5}, {1: 7}])) == 2

    @given(integer_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_bareiss(self, rows):
        before = [dict(r) for r in rows]
        ech = Echelon(rows)
        assert len(ech) == oracle.bareiss_rank(
            [[r.get(c, 0) for c in range(12)] for r in rows])
        assert rows == before
        # each stored row is primitive, with a positive int pivot
        for p, r in ech._forward.items():
            assert p == min(r) and r[p] > 0
            assert all(type(x) is int for x in r.values())
            assert gcd(*r.values()) == 1

    @given(integer_rows())
    @settings(max_examples=100, deadline=None)
    def test_fraction_entries_are_scaled_back(self, rows):
        ech = Echelon(rows)
        as_fractions = Echelon([{c: Fraction(x, 1) for c, x in r.items()}
                                for r in rows])
        assert len(as_fractions) == len(ech)
        assert as_fractions.rows == ech.rows

    @given(shaped_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_scaling_is_invisible(self, M, data):
        # rows times nonzero rationals span the same space
        rows = [sparse_row(r) for r in M]
        scales = data.draw(st.lists(small_frac.filter(bool),
                                    min_size=len(rows), max_size=len(rows)))
        ech = Echelon(rows)
        scaled = Echelon([{c: s * x for c, x in r.items()}
                          for s, r in zip(scales, rows)])
        assert len(scaled) == len(ech)
        assert scaled.rows == ech.rows


class TestKernel:
    def test_simple_kernel(self):
        ker = kernel_basis([[1, 1], [2, 2]])
        assert ker == Subspace(2, [[1, -1]])

    def test_kernel_vectors_annihilated(self):
        M = mat([[1, 2, 3], [4, 5, 6]])
        ker = kernel_basis(M)
        assert ker.dim == 1
        for v in ker.basis:
            assert all(x == 0 for x in mat_vec(M, list(v)))

    def test_full_rank_trivial_kernel(self):
        assert kernel_basis(identity(4)).dim == 0


class TestPseudoInverse:
    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_penrose_conditions(self, M):
        # the four conditions determine M+ uniquely
        P = pseudo_inverse(M)
        assert len(P) == len(M[0]) and all(len(r) == len(M) for r in P)
        MP, PM = mat_mul(M, P), mat_mul(P, M)
        assert mat_mul(MP, M) == mat(M)
        assert mat_mul(PM, P) == P
        assert transpose(MP) == MP
        assert transpose(PM) == PM

    def test_least_norm_solution(self):
        # x1 + x2 = 2: the least-norm solution is (1, 1)
        assert mat_vec(pseudo_inverse([[1, 1]]), [F(2)]) == [1, 1]
        assert pseudo_inverse([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
        assert pseudo_inverse([[F(1, 3), 0], [0, 2]]) == [[3, 0],
                                                          [0, F(1, 2)]]


class TestSolve:
    def test_unique_solution(self):
        status, x = solve([[2, 1], [1, 3]], [5, 10])
        assert status == "SOLUTION"
        assert x == [F(1), F(3)]

    def test_inconsistent_certificate(self):
        M = [[1, 1], [2, 2]]
        b = [1, 3]
        status, y = solve(M, b)
        assert status == "INCONSISTENT"
        yTM = mat_vec(transpose(mat(M)), y)
        assert all(v == 0 for v in yTM)
        assert sum(yi * bi for yi, bi in zip(y, b)) != 0

    def test_underdetermined(self):
        status, x = solve([[1, 1, 1]], [6])
        assert status == "SOLUTION"
        assert sum(x) == 6

    @given(matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_certificate_dichotomy(self, M, data):
        n = len(M)
        b = data.draw(st.lists(small_frac, min_size=n, max_size=n))
        status, w = solve(M, b)
        Mq = mat(M)
        if status == "SOLUTION":
            assert mat_vec(Mq, w) == [Fraction(x) for x in b]
        else:
            yTM = mat_vec(transpose(Mq), w)
            assert all(v == 0 for v in yTM)
            assert sum(yi * Fraction(bi) for yi, bi in zip(w, b)) != 0


class TestSubspace:
    def test_canonical_equality(self):
        A = Subspace(3, [[1, 1, 0], [0, 1, 1]])
        B = Subspace(3, [[1, 0, -1], [2, 3, 1]])
        assert A == B
        assert hash(A) == hash(B)

    def test_membership(self):
        A = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        assert A.contains_vector([3, -2, 0])
        assert not A.contains_vector([0, 0, 1])

    def test_sum_and_intersection(self):
        A = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        B = Subspace(3, [[0, 1, 0], [0, 0, 1]])
        assert oracle.subspace_sum(A, B).dim == 3
        assert oracle.intersect(A, B) == Subspace(3, [[0, 1, 0]])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_dimension_formula(self, data):
        n = data.draw(st.integers(1, 4))
        va = data.draw(
            st.lists(st.lists(small_frac, min_size=n, max_size=n), max_size=3)
        )
        vb = data.draw(
            st.lists(st.lists(small_frac, min_size=n, max_size=n), max_size=3)
        )
        A = Subspace(n, va)
        B = Subspace(n, vb)
        assert oracle.subspace_sum(A, B).dim + oracle.intersect(A, B).dim \
            == A.dim + B.dim


class TestSignature:
    def check(self, G, expected):
        pos, neg, zero, T = signature_normal_form(G)
        assert (pos, neg, zero) == expected
        Gq = mat(G)
        D = mat_mul(transpose(T), mat_mul(Gq, T))
        n = len(G)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        assert sum(1 for i in range(n) if D[i][i] > 0) == expected[0]
        assert sum(1 for i in range(n) if D[i][i] < 0) == expected[1]

    def test_minkowski(self):
        self.check([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0],
                    [0, 0, 0, -1]], (1, 3, 0))

    def test_hyperbolic_pairing(self):
        # V + V* with <(x, a), (y, b)> = b(x) + a(y), dim V = 2
        G = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        self.check(G, (2, 2, 0))

    def test_degenerate(self):
        self.check([[1, 1], [1, 1]], (1, 0, 1))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_symmetric(self, data):
        n = data.draw(st.integers(1, 4))
        entries = {}
        for i in range(n):
            for j in range(i, n):
                entries[(i, j)] = data.draw(small_frac)
        G = [[entries[(min(i, j), max(i, j))] for j in range(n)]
             for i in range(n)]
        pos, neg, zero, T = signature_normal_form(G)
        assert pos + neg + zero == n
        assert zero == n - rank(mat(G))
        D = mat_mul(transpose(T), mat_mul(mat(G), T))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0


class TestAnnihilator:
    G_hyp = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]

    def test_self_orthogonal_line(self):
        W = Subspace(2, [[1, 1]])
        ann = annihilator(W, [[1, 0], [0, -1]])
        assert ann == W

    def test_involution(self):
        W = Subspace(4, [[1, 0, 0, 0], [0, 1, 1, 0]])
        ann = annihilator(W, self.G_hyp)
        assert annihilator(ann, self.G_hyp) == W

    def test_dimension(self):
        W = Subspace(4, [[1, 2, 3, 4]])
        assert annihilator(W, self.G_hyp).dim == 3

    def test_degenerate_raises(self):
        W = Subspace(2, [[1, 0]])
        with pytest.raises(DegeneratePairing):
            annihilator(W, [[1, 1], [1, 1]])


def test_bareiss_matches_rref_pivots():
    M = mat([[F(1, 2), 1, 0], [1, 2, 1], [0, 0, 3]])
    _, piv_b = oracle.bareiss_echelon(M)
    _, piv_r = oracle.rref(M)
    assert piv_b == piv_r == list(Subspace(3, M).pivots)
    assert rank(M) == len(piv_b)


def test_floats_are_refused():
    # the Echelon entry scales a row to integers: a float must still be
    # frac's TypeError there, not an AttributeError on .denominator
    for make in (lambda: frac(0.1), lambda: frac("1/2"),
                 lambda: mat([[1, 0.5]]), lambda: sparse_row([0, 0.5]),
                 lambda: Echelon([{0: 0.5}]),
                 lambda: Echelon([{0: 1}]).insert({1: 2, 2: 0.5}),
                 lambda: solve_sparse([{0: 0.5}], {0: 1}),
                 lambda: solve([[0.5]], [1])):
        with pytest.raises(TypeError):
            make()
    for x in (-2, 0, 3, True):
        assert type(frac(x)) is Fraction and frac(x) == Fraction(x)
    half = F(1, 2)
    assert frac(half) is half


# -- the one elimination routine against the dense oracles --------------------

def ncols_of(M):
    return len(M[0]) if M else 0


def dense_rows(ech, ncols):
    return [[ech.rows[p].get(c, Fraction(0)) for c in range(ncols)]
            for p in sorted(ech.rows)]


class TestAgainstOracles:
    @given(shaped_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_and_rref(self, M):
        n = ncols_of(M)
        R, pivots = oracle.rref(M)
        ech = Echelon(map(sparse_row, M))
        assert dense_rows(ech, n) == R[:len(pivots)]
        assert sorted(ech.rows) == pivots
        assert rank(M) == oracle.bareiss_rank(M) == len(pivots)
        S = Subspace(n, M)
        assert S.basis == [tuple(row) for row in R[:len(pivots)]]
        assert S.pivots == tuple(pivots)

    @given(shaped_matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel(self, M):
        n = ncols_of(M)
        assert [[v.get(c, 0) for c in range(n)]
                for v in Echelon(map(sparse_row, M)).kernel(n)] \
            == oracle.kernel_vectors(M, n)
        assert kernel_basis(M) == Subspace(n, oracle.kernel_vectors(M, n))

    @given(shaped_matrices(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solve(self, M, data):
        n = ncols_of(M)
        if data.draw(st.booleans()):
            x = data.draw(st.lists(small_frac, min_size=n, max_size=n))
            b = mat_vec(mat(M), x) if M else []
        else:
            b = data.draw(st.lists(small_frac, min_size=len(M),
                                   max_size=len(M)))
        status, w = solve(M, b)
        want, w_old = oracle.solve(M, b)
        assert status == want
        if status == "SOLUTION":
            assert w == w_old
            return
        for y in (w, w_old):
            assert len(y) == len(M)
            assert all(v == 0 for v in mat_vec(transpose(mat(M)), y))
            assert sum(yi * Fraction(bi) for yi, bi in zip(y, b)) != 0

    @given(shaped_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_insert_reports_independence(self, M, data):
        n = ncols_of(M)
        ech = Echelon()
        for i, row in enumerate(M):
            grew = oracle.bareiss_rank(M[:i + 1]) > oracle.bareiss_rank(M[:i])
            assert ech.insert(sparse_row(row)) == grew
        v = data.draw(st.lists(small_frac, min_size=n, max_size=n))
        inside = oracle.bareiss_rank(M + [v]) == oracle.bareiss_rank(M)
        assert Subspace(n, M).contains_vector(v) == inside

    @given(shaped_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_forward_inserts_in_any_order(self, M, data):
        # rows and kernel read between inserts must follow every insert
        n = ncols_of(M)
        order = data.draw(st.permutations(range(len(M))))
        ech = Echelon()
        for i, r in enumerate(order, 1):
            ech.insert(sparse_row(M[r]))
            if data.draw(st.booleans()):
                part = [M[j] for j in order[:i]]
                R, pivots = oracle.rref(part)
                assert dense_rows(ech, n) == R[:len(pivots)]
                assert [[v.get(c, 0) for c in range(n)]
                        for v in ech.kernel(n)] \
                    == oracle.kernel_vectors(part, n)
        R, pivots = oracle.rref(M)
        assert dense_rows(ech, n) == R[:len(pivots)]
        assert Echelon(sparse_row(M[r]) for r in order).rows == ech.rows

    @given(shaped_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_keyed_solve(self, M, data):
        # rows keyed by tuples whose sorted order is not the row order
        n = ncols_of(M)
        keys = data.draw(st.lists(st.tuples(st.sampled_from("ab"),
                                            st.integers(0, 9)),
                                  min_size=len(M), max_size=len(M),
                                  unique=True))
        if data.draw(st.booleans()):
            x = data.draw(st.lists(small_frac, min_size=n, max_size=n))
            b = mat_vec(mat(M), x) if M else []
        else:
            b = data.draw(st.lists(small_frac, min_size=len(M),
                                   max_size=len(M)))
        cols = [{key: row[j] for key, row in zip(keys, M) if row[j]}
                for j in range(n)]
        status, w = solve_sparse(cols, dict(zip(keys, b)))
        want, x_old = oracle.solve(M, b)
        assert status == want
        if status == "SOLUTION":
            assert w == x_old
            return
        for col in cols:
            assert sum(w.get(key, 0) * v for key, v in col.items()) == 0
        assert sum(w.get(key, 0) * bi for key, bi in zip(keys, b)) != 0
