"""The dense elimination loops that `ratlin.Echelon` replaced, kept as
independent oracles: fraction-free Bareiss elimination for the rank, the
dense reduced row echelon form, and the solve that eliminates [M | b | I]
so that an inconsistent row carries its own certificate.  `rank` is
the rank by `Echelon` itself, for tests that read a dimension off a
matrix."""

from fractions import Fraction
from math import gcd, lcm

from diracdeform.ratlin import Echelon, sparse_row


def _clear_row(row):
    """Scale a Fraction row to coprime integers (empty/zero rows allowed)."""
    mult = lcm(*(f.denominator for f in row)) if row else 1
    ints = [int(f * mult) for f in row]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def bareiss_echelon(M):
    """Fraction-free Bareiss elimination: (integer echelon form, pivot
    columns of its nonzero rows)."""
    rows = [_clear_row([Fraction(x) for x in row]) for row in M]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                rows[i][j] = (rows[r][c] * rows[i][j]
                              - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r] + [[0] * ncols for _ in range(nrows - r)], pivots


def bareiss_rank(M):
    return len(bareiss_echelon(M)[1])


def rref(M):
    """Dense reduced row echelon form over Fraction: (R, pivot_cols)."""
    rows = [[Fraction(x) for x in row] for row in M]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel_vectors(M, ncols):
    """Null-space basis read off the dense RREF, one vector per free
    column in column order."""
    R, pivots = rref(M)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fcol]
        basis.append(v)
    return basis


def solve(M, b):
    """("SOLUTION", x) or ("INCONSISTENT", y) by eliminating [M | b | I]."""
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    aug = [[Fraction(x) for x in M[i]] + [Fraction(b[i])]
           + [Fraction(1 if j == i else 0) for j in range(nrows)]
           for i in range(nrows)]
    r = 0
    pivots = []
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * bb for a, bb in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return ("INCONSISTENT", aug[i][ncols + 1:])
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = aug[i][ncols]
    return ("SOLUTION", x)


def rank(M):
    return len(Echelon(map(sparse_row, M)))
