"""Exact linear algebra over the rationals.

Matrices are plain lists of rows, entries `fractions.Fraction` (helpers
coerce ints and refuse floats).  One elimination routine, `Echelon`,
serves ranks, kernels, solves, pseudo-inverses and subspaces; only this
module knows its row format, a dict column -> number, and only
`Echelon.of_columns` transposes sparse columns into it.  The forward
pass is fraction-free, so a rank takes no Fraction; one back pass gives
the reduced row echelon form: canonical for a given column order, so
kernel bases (sparse rows), solutions and Subspace bases do not depend
on the order of the rows.  `solve_sparse` takes sparse columns keyed by
any sortable keys; `solve` is its dense edge.

All values are immutable by convention: no function mutates its inputs.
"""

import numbers
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import attrgetter


def frac(x):
    """x, a rational number, as a Fraction.  A float is a TypeError;
    exact code takes no float."""
    if isinstance(x, Fraction):
        return x
    if type(x) is not int and not isinstance(x, numbers.Rational):
        raise TypeError("coefficient must be an int or a Fraction, "
                        f"got {type(x).__name__}")
    return Fraction(x)


def mat(rows):
    """Coerce a list of rows of numbers to Fraction entries."""
    return [[frac(x) for x in row] for row in rows]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def mat_mul(A, B):
    Bt = transpose(B)
    return [mat_vec(Bt, row) for row in A]


def mat_vec(A, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in A]


def transpose(A):
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


_INT, _RATIONAL = frozenset((int,)), frozenset((int, Fraction))
_denominator = attrgetter("denominator")


def _integer_row(row):
    """row, a dict column -> nonzero rational, times the lcm of its
    denominators: a dict column -> int."""
    if not _RATIONAL.issuperset(map(type, row.values())):
        row = {c: frac(x) for c, x in row.items()}
    den = lcm(*map(_denominator, row.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in row.items()}


class Echelon:
    """Row echelon form of a row space, built one row at a time.

    A row is a dict column -> nonzero rational; columns are mutually
    comparable keys (0..ncols-1 for `kernel`).  The forward pass is
    fraction-free (Bareiss, Math. Comp. 22, 1968): a row enters scaled
    to integers, and clearing pivot p of v with the stored row r sets
    v <- (r[p] / g) v - (v[p] / g) r, g = gcd(r[p], v[p]).  A stored row
    is primitive, with a positive pivot, and zero at earlier pivots; so
    `len`, the rank, takes no Fraction.  `rows`, the reduced echelon
    form, is unique for a given column order, whatever the row order.
    """

    __slots__ = ("_forward", "_rref")

    def __init__(self, rows=()):
        self._forward, self._rref = {}, {}
        rows = list(rows)
        # one pass over all entries: int rows need no scaling
        if not _INT.issuperset(map(type, chain.from_iterable(
                map(dict.values, rows)))):
            rows = map(_integer_row, rows)
        # short rows first: they fill fewer columns of the later ones
        self._eliminate(sorted(rows, key=len), True)

    @classmethod
    def of_columns(cls, columns):
        """The Echelon of the matrix whose j-th column is the dict key ->
        number columns[j]: one row j -> entry per key with a nonzero entry."""
        rows = {}
        for j, col in enumerate(columns):
            for key, x in col.items():
                if x:
                    rows.setdefault(key, {})[j] = x
        return cls(rows.values())

    def __len__(self):
        return len(self._forward)

    @property
    def integer_rows(self):
        """pivot column -> row of an echelon form that is not reduced:
        a dict column -> int, primitive, with a positive pivot; the rows
        the forward pass stored, with no Fraction."""
        return self._forward

    def _eliminate(self, rows, store):
        """Reduce each int row against the stored rows, and store what
        is left of it if `store`; return what is left of the last."""
        stored = self._forward
        v = {}
        for v in rows:
            v = dict(v)
            # a stored row only reaches columns after its pivot, so
            # clearing pivots in increasing order clears each one once
            while pivots := [c for c in v if c in stored]:
                p = min(pivots)
                r, x = stored[p], v.pop(p)
                g = gcd(r[p], x)
                a = r[p] // g
                if a != 1:
                    for c in v:
                        v[c] *= a
                _sub_multiple(v, x // g, r, p)
            if store and v:
                p = min(v)
                g = gcd(*v.values()) if v[p] > 0 else -gcd(*v.values())
                stored[p] = {c: x // g for c, x in v.items()} if g != 1 else v
                self._rref = None
        return v

    def reduce(self, row):
        """c (row - s), int, for an int c > 0 and the s in the span that
        clears every pivot column: empty iff row lies in the span."""
        return self._eliminate([_integer_row(row)], False)

    def insert(self, row):
        """Add row to the span; True iff it was independent."""
        return bool(self._eliminate([_integer_row(row)], True))

    @property
    def rows(self):
        """pivot column -> row of the reduced echelon form (Fractions)."""
        if self._rref is None:
            rref = {}
            for p in sorted(self._forward, reverse=True):
                r = self._forward[p]
                piv = r[p]
                v = ({c: Fraction(x) for c, x in r.items()} if piv == 1 else
                     {c: Fraction(x, piv) for c, x in r.items()})
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
    aug = Echelon.of_columns([*columns, b])
    if n not in aug.rows:
        return ("SOLUTION", [aug.rows.get(j, {}).get(n, Fraction(0))
                             for j in range(n)])
    keys = sorted({key for col in [*columns, b] for key in col})
    pos = {key: i for i, key in enumerate(keys)}
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
    return status, (w if status == "SOLUTION" else
                    [w.get(i, Fraction(0)) for i in range(len(M))])


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


