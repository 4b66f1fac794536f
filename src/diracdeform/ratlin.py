"""Exact linear algebra over the rationals.

Matrices are plain lists of rows, entries `fractions.Fraction` (helpers
coerce ints).  One elimination routine, `Echelon`, serves kernels,
solves, pseudo-inverses and subspaces; only this module knows its row
format, a dict column -> Fraction.  Each insert is a forward pass, and
one back-substitution pass, highest pivot first, gives the reduced row
echelon form: canonical for a given column order, so kernel bases
(sparse rows), solutions and Subspace bases do not depend on the order
of the rows.  `solve_sparse` takes sparse columns keyed by any sortable
coordinate keys; `solve` is its dense edge.  A rank alone is
`rank_of_rows`: a forward pass over integer rows, with no Fraction.

All values are immutable by convention: no function mutates its inputs.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd


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
    """Row echelon form of a row space, built one row at a time.

    A row is a dict column -> nonzero number.  A stored row has pivot
    entry 1 and is zero at the earlier pivots; in `rows`, the reduced
    echelon form, it is zero at every other pivot.  That form is unique
    for a given column order, whatever order the rows came in.
    """

    __slots__ = ("_forward", "_rref")

    def __init__(self, rows=()):
        self._forward, self._rref = {}, {}
        # short rows first: they fill fewer columns of the later ones
        for row in sorted(rows, key=len):
            self.insert(row)

    def __len__(self):
        return len(self._forward)

    def reduce(self, row):
        """row minus the combination of stored rows that clears its pivot
        columns; empty iff row lies in the span."""
        v = dict(row)
        stored = self._forward
        # a stored row only reaches columns after its pivot, so clearing
        # pivots in increasing order clears each one once
        while pivots := [c for c in v if c in stored]:
            p = min(pivots)
            _sub_multiple(v, v.pop(p), stored[p], p)
        return v

    def insert(self, row):
        """Add row to the span; True iff it was independent."""
        v = self.reduce(row)
        if not v:
            return False
        p = min(v)
        inv = frac(v[p])
        self._forward[p] = {c: x / inv for c, x in v.items()}
        self._rref = None
        return True

    @property
    def rows(self):
        """pivot column -> row of the reduced echelon form."""
        if self._rref is None:
            rref = {}
            for p in sorted(self._forward, reverse=True):
                v = dict(self._forward[p])
                for c in [c for c in v if c != p and c in rref]:
                    _sub_multiple(v, v.pop(c), rref[c], c)
                rref[p] = v
            self._rref = rref
        return self._rref

    def kernel(self, ncols):
        """Basis of the vectors of Q^ncols orthogonal to every row, as
        sparse rows: one per free column c, with entry 1 at c and 0 at
        the other free columns, in column order."""
        rows = self.rows
        basis = {c: {c: Fraction(1)} for c in range(ncols) if c not in rows}
        for p, row in rows.items():
            for c, x in row.items():
                if c != p:
                    basis[c][p] = -x
        return list(basis.values())


def rank_of_rows(rows):
    """The rank over Q of sparse integer rows (dicts column -> nonzero
    int), by fraction-free forward elimination (Bareiss, Math. Comp. 22,
    1968).  A stored row is primitive (content 1) with a positive pivot;
    clearing pivot p of v with stored row r sets

        v <- (r[p] / g) v - (v[p] / g) r,    g = gcd(r[p], v[p]),

    and a surviving row is divided by its content.  Rows go in shortest
    first, as in Echelon."""
    stored = {}
    for row in sorted(rows, key=len):
        v = dict(row)
        while pivots := [c for c in v if c in stored]:
            p = min(pivots)
            r, x = stored[p], v.pop(p)
            g = gcd(r[p], x)
            a, b = r[p] // g, x // g
            if a != 1:
                for c in v:
                    v[c] *= a
            _sub_multiple(v, b, r, p)
        if v:
            p = min(v)
            g = gcd(*v.values()) if v[p] > 0 else -gcd(*v.values())
            stored[p] = {c: x // g for c, x in v.items()}
    return len(stored)


def kernel_basis(M, ncols=None):
    """The null space of M in Q^ncols (by default M's row length)."""
    if ncols is None:
        ncols = len(M[0]) if M else 0
    return Subspace(ncols, M).orthogonal()


def solve_sparse(columns, b):
    """Solve sum_j x_j columns[j] = b exactly; the columns and b are
    dicts key -> number, the rows M of the system their keys in sorted
    order.  Returns ("SOLUTION", x), one Fraction per column, read from
    the reduced echelon form of [M | b] with the free variables 0; or
    ("INCONSISTENT", y), y a dict key -> Fraction: the first vector of
    the kernel basis of M^T that pairs nonzero with b.
    """
    n = len(columns)
    keys = sorted({key for col in columns for key in col} | set(b))
    pos = {key: i for i, key in enumerate(keys)}
    rows = {}
    for j, col in enumerate([*columns, b]):
        for key, x in col.items():
            if x:
                rows.setdefault(pos[key], {})[j] = frac(x)
    aug = Echelon(rows.values())
    if n not in aug.rows:
        return ("SOLUTION", [aug.rows.get(j, {}).get(n, Fraction(0))
                             for j in range(n)])
    ker = Echelon({pos[key]: x for key, x in col.items() if x}
                  for col in columns).kernel(len(keys))
    y = next(y for y in ker
             if sum(x * frac(b.get(keys[i], 0)) for i, x in y.items()))
    return ("INCONSISTENT", {keys[i]: x for i, x in y.items()})


def solve(M, b):
    """Solve M x = b exactly: `solve_sparse` on the columns of M, with
    x and the certificate y (yT M = 0, yT b != 0) as dense lists."""
    status, w = solve_sparse([dict(enumerate(col)) for col in zip(*M)],
                             dict(enumerate(b)))
    if status == "SOLUTION":
        return status, w
    return status, [w.get(i, Fraction(0)) for i in range(len(M))]


def pseudo_inverse(M):
    """The Moore-Penrose pseudo-inverse of M (ncols x nrows), exactly.

    With C the nonzero rows of the reduced echelon form of M and B the
    pivot columns of M, M = B C is a rank factorisation, and
    M+ = C^T (C C^T)^-1 (B^T B)^-1 B^T = C^T A^-1 B^T, A = B^T M C^T.
    A^-1 B^T is read from the reduced echelon form [I | A^-1 B^T] of
    [A | B^T].
    """
    S = Subspace(len(M[0]) if M else 0, M)
    if not S.dim:
        return zeros(S.ambient_dim, len(M))
    Bt = [[frac(row[p]) for row in M] for p in S.pivots]
    Ct = transpose(S.basis)
    A = mat_mul(Bt, mat_mul(mat(M), Ct))
    E = Echelon(sparse_row(a + y) for a, y in zip(A, Bt))
    return mat_mul(Ct, [[E.rows[p].get(S.dim + j, Fraction(0))
                         for j in range(len(M))] for p in range(S.dim)])


class Subspace:
    """A subspace of Q^n; its canonical form, the `Echelon` of a basis,
    decides equality, and `basis` writes its rows out densely when read.
    """

    def __init__(self, ambient_dim, basis):
        """basis: dense vectors, or an Echelon of sparse rows."""
        if not isinstance(basis, Echelon):
            if any(len(v) != ambient_dim for v in basis):
                raise ValueError("basis vector has wrong length")
            basis = Echelon(map(sparse_row, basis))
        self.ambient_dim, self.echelon = ambient_dim, basis

    @cached_property
    def pivots(self):
        return tuple(sorted(self.echelon.rows))

    @cached_property
    def basis(self):
        rows = self.echelon.rows
        return [tuple(rows[p].get(c, Fraction(0))
                      for c in range(self.ambient_dim))
                for p in self.pivots]

    @property
    def dim(self):
        return len(self.echelon)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.echelon.rows == other.echelon.rows)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_vector(self, v):
        return not self.echelon.reduce(sparse_row(v))

    def contains(self, other):
        return not any(map(self.echelon.reduce, other.echelon.rows.values()))

    def orthogonal(self):
        """The vectors orthogonal to every vector of this subspace."""
        n = self.ambient_dim
        return Subspace(n, Echelon(self.echelon.kernel(n)))

    def add(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, Echelon(
            [*self.echelon.rows.values(), *other.echelon.rows.values()]))

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        # the dot product is nondegenerate, so A = (A^perp)^perp and
        # A cap B = (A^perp + B^perp)^perp
        return self.orthogonal().add(other.orthogonal()).orthogonal()


