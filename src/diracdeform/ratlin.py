"""Exact linear algebra over the rationals.

Matrices are plain lists of rows, entries `fractions.Fraction` (helpers
coerce ints).  One elimination routine, `Echelon`, serves rank, kernels,
solves, pseudo-inverses and subspaces: it keeps sparse rows (dicts column -> Fraction) in
reduced row echelon form keyed by pivot column, and reports whether each
inserted row was independent.  The reduced echelon form is canonical for
a given column order, so kernel bases, particular solutions and Subspace
bases do not depend on the order of the rows.

All values are immutable by convention: no function mutates its inputs.
"""

from fractions import Fraction


class NotSubspace(Exception):
    """Raised when a claimed subspace containment fails."""


class DegeneratePairing(Exception):
    """Raised when an operation requires a nondegenerate bilinear form."""


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def mat(rows):
    """Coerce a list of rows of numbers to Fraction entries."""
    return [[frac(x) for x in row] for row in rows]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rb = len(B)
    cb = len(B[0]) if rb else 0
    out = []
    for row in A:
        out.append([sum((row[k] * B[k][j] for k in range(rb)), Fraction(0))
                    for j in range(cb)])
    return out


def mat_vec(A, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in A]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def sparse_row(v):
    """The nonzero entries of a dense vector, as a dict column -> Fraction."""
    return {j: q for j, x in enumerate(v) if (q := frac(x))}


def _sub_multiple(v, f, row, skip):
    """v -= f * row in place over the columns of row except `skip`,
    dropping entries that cancel."""
    for c, x in row.items():
        if c != skip:
            y = v.get(c, 0) - f * x
            if y:
                v[c] = y
            else:
                del v[c]


class Echelon:
    """Reduced row echelon form of a row space, built one row at a time.

    A row is a dict column -> nonzero Fraction.  `rows` maps each pivot
    (first nonzero) column to its row; a stored row has pivot entry 1 and
    is zero at every other pivot.  The reduced echelon form of a row space
    is unique for a given column order, so it does not depend on the order
    in which rows are inserted.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = {}
        for row in rows:
            self.insert(row)

    def __len__(self):
        return len(self.rows)

    def reduce(self, row):
        """row minus the combination of stored rows that clears its pivot
        columns; empty iff row lies in the span."""
        v = dict(row)
        # a stored row is zero at the other pivots, so one pass suffices
        for p in [c for c in v if c in self.rows]:
            _sub_multiple(v, v.pop(p), self.rows[p], p)
        return v

    def insert(self, row):
        """Add row to the span; True iff it was independent."""
        v = self.reduce(row)
        if not v:
            return False
        p = min(v)
        inv = v[p]
        v = {c: x / inv for c, x in v.items()}
        for r in self.rows.values():
            f = r.pop(p, None)
            if f is not None:
                _sub_multiple(r, f, v, p)
        self.rows[p] = v
        return True

    def kernel(self, ncols):
        """Basis of the vectors of Q^ncols orthogonal to every row: one
        per free column c, with entry 1 at c and 0 at the other free
        columns, in column order."""
        basis = {c: [Fraction(0)] * ncols
                 for c in range(ncols) if c not in self.rows}
        for c, v in basis.items():
            v[c] = Fraction(1)
        for p, row in self.rows.items():
            for c, x in row.items():
                if c != p:
                    basis[c][p] = -x
        return list(basis.values())


def rank(M):
    return len(Echelon(map(sparse_row, M)))


def kernel_basis(M):
    """Basis of the null space of M, as a Subspace of dimension ncols."""
    ncols = len(M[0]) if M else 0
    return Subspace(ncols, Echelon(map(sparse_row, M)).kernel(ncols))


def solve(M, b):
    """Solve M x = b exactly.

    Returns ("SOLUTION", x) with M x = b, or ("INCONSISTENT", y) with a
    certificate y satisfying yT M = 0 and yT b != 0.  Exactly one branch.
    x is read from the reduced echelon form of [M | b], with the free
    variables set to 0; y is the first vector of the kernel basis of M^T
    that pairs nonzero with b.
    """
    ncols = len(M[0]) if M else 0
    aug = Echelon(sparse_row(list(row) + [bi]) for row, bi in zip(M, b))
    if ncols in aug.rows:
        b = [frac(x) for x in b]
        ker = Echelon(map(sparse_row, transpose(M))).kernel(len(M))
        return ("INCONSISTENT",
                next(y for y in ker if sum(a * c for a, c in zip(y, b))))
    x = [Fraction(0)] * ncols
    for p, row in aug.rows.items():
        x[p] = row.get(ncols, Fraction(0))
    return ("SOLUTION", x)


def _left_divide(A, Y):
    """A^-1 Y for an invertible square A: the reduced echelon form of
    [A | Y] is [I | A^-1 Y]."""
    r, width = len(A), len(Y[0])
    E = Echelon(sparse_row(list(a) + list(y)) for a, y in zip(A, Y))
    return [[E.rows[p].get(r + j, Fraction(0)) for j in range(width)]
            for p in range(r)]


def pseudo_inverse(M):
    """The Moore-Penrose pseudo-inverse of M (ncols x nrows), exactly.

    With C the nonzero rows of the reduced echelon form of M and B the
    pivot columns of M, M = B C is a rank factorisation, and
    M+ = C^T (C C^T)^-1 (B^T B)^-1 B^T.
    """
    ncols = len(M[0]) if M else 0
    E = Echelon(map(sparse_row, M))
    if not E.rows:
        return zeros(ncols, len(M))
    pivots = sorted(E.rows)
    C = [[E.rows[p].get(j, Fraction(0)) for j in range(ncols)]
         for p in pivots]
    Bt = [[frac(row[p]) for row in M] for p in pivots]
    Ct = transpose(C)
    Y = _left_divide(mat_mul(Bt, transpose(Bt)), Bt)
    return mat_mul(Ct, _left_divide(mat_mul(C, Ct), Y))


class Subspace:
    """A subspace of Q^n given by a basis; canonical form is the RREF of
    the basis written as rows.  Equality is comparison of canonical rows.
    """

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        for v in basis:
            if len(v) != ambient_dim:
                raise ValueError("basis vector has wrong length")
        self.echelon = Echelon(map(sparse_row, basis))
        self.pivots = tuple(sorted(self.echelon.rows))
        self.basis = [tuple(self.echelon.rows[p].get(c, Fraction(0))
                            for c in range(ambient_dim))
                      for p in self.pivots]

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_vector(self, v):
        return not self.echelon.reduce(sparse_row(v))

    def contains(self, other):
        return all(self.contains_vector(v) for v in other.basis)

    def add(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not self.basis or not other.basis:
            return Subspace(self.ambient_dim, [])
        # Solve a*A = b*B: kernel of the stacked matrix [A^T | -B^T].
        cols = [list(v) for v in self.basis] + [[-x for x in v] for v in other.basis]
        M = transpose(cols)
        ker = kernel_basis(M)
        na = len(self.basis)
        return Subspace(self.ambient_dim,
                        mat_mul([c[:na] for c in ker.basis], self.basis))


def quotient_dim(A, B):
    """dim(A/B) for B a subspace of A; raises NotSubspace otherwise."""
    if not A.contains(B):
        raise NotSubspace("second argument is not contained in the first")
    return A.dim - B.dim


def signature_normal_form(G):
    """Congruence-diagonalize a symmetric form over Q.

    Returns (n_pos, n_neg, n_zero, T) with T^T G T diagonal; the counts
    are the numbers of positive/negative/zero diagonal entries.
    """
    n = len(G)
    A = [[frac(G[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if A[i][j] != A[j][i]:
                raise ValueError("form is not symmetric")
    T = identity(n)

    def col_op(dst, src, f):
        # column_dst += f * column_src, applied to A (congruently) and T
        for i in range(n):
            A[i][dst] += f * A[i][src]
        for i in range(n):
            A[dst][i] += f * A[src][i]
        for i in range(n):
            T[i][dst] += f * T[i][src]

    def col_swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            A[i][r], A[j][r] = A[j][r], A[i][r]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]

    for k in range(n):
        if A[k][k] == 0:
            # find a later column with nonzero diagonal, or create one
            found = False
            for j in range(k + 1, n):
                if A[j][j] != 0:
                    col_swap(k, j)
                    found = True
                    break
            if not found:
                for j in range(k + 1, n):
                    if A[k][j] != 0:
                        col_op(k, j, Fraction(1))
                        found = True
                        break
            if not found:
                continue
        d = A[k][k]
        for j in range(k + 1, n):
            if A[k][j] != 0:
                col_op(j, k, -A[k][j] / d)
    pos = sum(1 for k in range(n) if A[k][k] > 0)
    neg = sum(1 for k in range(n) if A[k][k] < 0)
    zero = n - pos - neg
    return pos, neg, zero, T


def annihilator(W, pairing):
    """{v : pairing(v, w) = 0 for all w in W} for a nondegenerate pairing."""
    n = W.ambient_dim
    G = mat(pairing)
    if rank(G) < n:
        raise DegeneratePairing("pairing matrix is singular")
    rows = (sparse_row(mat_vec(G, list(w))) for w in W.basis)
    return Subspace(n, Echelon(rows).kernel(n))
