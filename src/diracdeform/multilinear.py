"""Antisymmetric multilinear maps over exact rationals.

NonSymMultiMap holds multilinear maps V^n -> V on a finite-dimensional
rational vector space (the full tensor); its subclass MultiMap holds
the antisymmetric ones on strictly increasing index tuples, with the
Nijenhuis-Richardson bracket.  A map stores one format, its sparse
coordinates `terms` {(index tuple, output): nonzero value}, which every
algorithm reads; the literal {index tuple: value vector} of the
constructor is input only, and results are built by `of_terms`.  The
Chevalley-Eilenberg differential of a Lie structure mu is
delta = (-1)^{n+1} [mu, .]_NR on n-cochains.  The bracket of two maps
and the Jacobi test come from one sparse insertion of a map into a slot
of another (_slots, _insert), which walks only the coordinates present.
The one builder of delta's columns (_delta_columns, from a coordinate
dict of mu) indexes mu's coordinates once, by slot and by output, with
index sets as bit masks, and inserts each unit cochain by mask
arithmetic.  Both cohomology questions feed that builder the integer
structure D mu (_integer_terms) and hand its int columns to
`ratlin.Echelon.of_columns`: cohomology_dims reads off a rank with no
Fraction, `algebroid.cohomology` a kernel and an image.  The solves of
`lie_deform` feed it mu's Fractions.  Cohomology with representatives,
the Gerstenhaber bracket, multiderivations and Grassmann derivations
are in `algebroid`.
"""

import itertools
import json
import math

from . import ratlin
from .jsonin import InputError, array, fields, natural, rational
from .ratlin import frac
from .superalg import GeneratorSet, merge_monomials


class DimMismatch(Exception):
    pass


class NotLie(Exception):
    pass


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------

def _psign(e):
    """(-1)**e, safe for negative integer exponents."""
    return -1 if e % 2 else 1


def _sort_sign(idx):
    """Sort an index tuple; return (sorted tuple, sign) or (None, 0) on
    repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0
    return tuple(idx), sign


# ---------------------------------------------------------------------------
# MultiMap
# ---------------------------------------------------------------------------

class NonSymMultiMap:
    """Plain (non-symmetrized) n-linear map V^n -> V, dim V = dim, over Q:
    the full tensor, keyed by index tuples over range(dim).  n = 0
    encodes an element of V.

    `terms` holds the nonzero coordinates {(index tuple, output index):
    value}, the shape of SuperElement.terms; values are ints or
    Fractions.  The constructor reads the literal {index tuple: value
    vector} and checks it; `of_terms` takes coordinates unchecked."""

    __slots__ = ("n", "dim", "terms")

    def __init__(self, n, dim, c=None):
        terms = {}
        for idx, vec in (c or {}).items():
            idx = tuple(idx)
            if len(idx) != n:
                raise ValueError(f"index tuple {idx} has wrong length")
            if not all(0 <= i < dim for i in idx):
                raise ValueError(f"index tuple {idx} leaves range({dim})")
            self._check_key(idx)
            vec = [frac(v) for v in vec]
            if len(vec) != dim:
                raise ValueError("value vector has wrong length")
            for t, v in enumerate(vec):
                if v:
                    terms[(idx, t)] = v
        self.n, self.dim, self.terms = n, dim, terms

    @classmethod
    def of_terms(cls, n, dim, terms):
        """The map with coordinates terms ({(idx, t): value}, keyed like
        `terms`), unchecked; zero values are dropped."""
        self = cls.__new__(cls)
        self.n, self.dim = n, dim
        self.terms = {key: v for key, v in terms.items() if v}
        return self

    @staticmethod
    def _check_key(idx):
        pass

    # -- basics --

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.dim == other.dim and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other):
        if self.n != other.n or self.dim != other.dim:
            raise DimMismatch("adding maps of different shape")
        terms = dict(self.terms)
        for key, v in other.terms.items():
            terms[key] = terms.get(key, 0) + v
        return self.of_terms(self.n, self.dim, terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = frac(scalar)
        return self.of_terms(self.n, self.dim, {
            key: scalar * v for key, v in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.n}, dim={self.dim}, "
                f"terms={self.terms})")

    def eval_indices(self, idx):
        """Value on basis vectors e_{idx[0]}, ..., e_{idx[n-1]}, as a
        tuple of dim coordinates."""
        return self._value(tuple(idx), 1)

    def _value(self, idx, sign):
        get = self.terms.get
        return tuple(sign * get((idx, t), 0) for t in range(self.dim))

    @classmethod
    def zero(cls, n, dim):
        return cls.of_terms(n, dim, {})


class MultiMap(NonSymMultiMap):
    """Antisymmetric n-linear map V^n -> V: coefficients live on strictly
    increasing index tuples and evaluation extends by antisymmetry."""

    __slots__ = ()

    @staticmethod
    def _check_key(idx):
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"index tuple {idx} not strictly increasing")

    def eval_indices(self, idx):
        # a repeated index has sign 0: the zero vector
        return self._value(*_sort_sign(idx))


# ---------------------------------------------------------------------------
# Nijenhuis-Richardson bracket and CE differential
# ---------------------------------------------------------------------------

def _slots(terms):
    """Index the coordinates {(idx, t): v} of a map by slot: s maps to
    [(position of s in idx, idx without s, t, v)], one entry per
    occurrence of s."""
    slots = {}
    for (idx, t), v in terms.items():
        for pos, s in enumerate(idx):
            slots.setdefault(s, []).append(
                (pos, idx[:pos] + idx[pos + 1:], t, v))
    return slots


def _insert(f_slots, g_terms, scale=1, out=None):
    """Add scale * (f <> g) to the coordinate dict out and return it.

    Each coordinate (J, s) of g meets each entry of f that holds slot s
    once: moving e_s to the front of f's arguments costs (-1)^pos, and
    the (J, rest)-shuffle costs the Koszul sign of merging J with rest
    (None on a repeated index).  Cancelled coordinates stay as zeros."""
    if out is None:
        out = {}
    for (J, s), w in g_terms.items():
        for pos, rest, t, v in f_slots.get(s, ()):
            merged = merge_monomials((), J, (), rest)
            if merged is None:
                continue
            key = (merged[1], t)
            sign = _psign(pos) * merged[2] * scale
            out[key] = out.get(key, 0) + sign * w * v
    return out


def nr_diamond(f, g):
    """The shuffle insertion f <> g: insert g into the first slot of f and
    sum over (arity(g), arity(f)-1)-shuffles of the arguments."""
    if f.dim != g.dim:
        raise DimMismatch("maps over different spaces")
    return MultiMap.of_terms(max(f.n + g.n - 1, 0), f.dim,
                             _insert(_slots(f.terms), g.terms))


def nr_bracket(f, g):
    """Graded Lie bracket on antisymmetric multimaps: square-zero 2-ary
    elements are exactly the Lie brackets."""
    sign = _psign((f.n - 1) * (g.n - 1))
    return nr_diamond(f, g) - sign * nr_diamond(g, f)


def first_failing_triple(mu):
    """The first basis triple x < y < z (lexicographic) with a nonzero
    Jacobiator, or None: on an increasing triple, (mu <> mu)(x, y, z) is
    the Jacobiator."""
    return min((idx for idx, _ in nr_diamond(mu, mu).terms), default=None)


def is_lie(mu):
    """Jacobi test: [mu, mu]_NR = 2 mu <> mu = 0."""
    return first_failing_triple(mu) is None


def _require_lie(mu):
    if not is_lie(mu):
        raise NotLie("mu does not satisfy the Jacobi identity")


def _ce_differential(mu, f):
    """algebroid.ce_differential without the Jacobi check, for callers that have
    checked mu once."""
    return _psign(f.n + 1) * nr_bracket(mu, f)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def _cochain_basis(k, dim):
    return [(idx, g) for idx in itertools.combinations(range(dim), k)
            for g in range(dim)]


def _unit_cochains(k, dim):
    """The k-cochains with a single coefficient 1, in _cochain_basis
    order."""
    return [MultiMap.of_terms(k, dim, {key: 1})
            for key in _cochain_basis(k, dim)]


def _mask(idx):
    """The index set idx as a bit mask."""
    m = 0
    for i in idx:
        m |= 1 << i
    return m


def _delta_columns(terms, dim, k):
    """Columns of the CE differential A^k -> A^{k+1} of the structure
    with coordinates terms ({(idx, t): v}, as MultiMap.terms) on a space
    of dimension dim, without a Jacobi check: one dict per element
    (I, g) of _cochain_basis(k, dim), holding the nonzero coordinates
    (keyed like MultiMap.terms) of

        delta e = (-1)^{k+1} [mu, e]_NR
                = (-1)^{k+1} mu <> e - e <> mu

    for the unit cochain e = e^I (x) e_g.  Its entries are values of
    terms up to sign, and their sums: ints for int terms.

    mu's coordinates are indexed once, with each index set as a bit
    mask: by slot (mu <> e puts e into the slot g of mu) and by output
    (e <> mu puts mu into a slot s of e), each with its value under both
    signs.  Against a unit cochain, a repeated index is a nonzero
    I & rest; the Koszul sign of merging two index sets counts, for each
    index of mu's side, the indices of the other side on the wrong side
    of it (int.bit_count); and a merged key comes from a mask -> sorted
    tuple dict.  e <> mu has e's output g, so its coordinates are found
    once per I and shared by the dim columns of I."""
    by_slot, by_output = {}, {}
    for (idx, t), v in terms.items():
        mask = _mask(idx)
        by_output.setdefault(t, []).append(
            (mask, idx, tuple((1 << a) - 1 for a in idx), (-v, v)))
        for pos, s in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            by_slot.setdefault(s, []).append(
                (mask ^ (1 << s), rest, tuple(b + 1 for b in rest), t,
                 (-v, v) if (pos + k) & 1 == 0 else (v, -v)))
    slots = [by_slot.get(g, ()) for g in range(dim)]
    sorted_of = {}
    cols = []
    for I in itertools.combinations(range(dim), k):
        imask = _mask(I)
        # -e <> mu: the coordinate (J, s) of mu meets the slot s of e, at
        # position p of I, and J merges with R = I \ s; sign (-1)^{p+1}
        # times the count of pairs a in J, b in R with a > b
        right = []
        for p, s in enumerate(I):
            R = imask ^ (1 << s)
            for jmask, J, lows, vals in by_output.get(s, ()):
                if jmask & R:
                    continue
                odd = p
                for low in lows:
                    odd += (R & low).bit_count()
                m = jmask | R
                key = sorted_of.get(m)
                if key is None:
                    key = sorted_of[m] = tuple(sorted(J + I[:p] + I[p + 1:]))
                right.append((key, vals[odd & 1]))
        for g in range(dim):
            # (-1)^{k+1} mu <> e: e meets the slot g of mu, at position
            # pos, and I merges with the rest of mu's index; sign
            # (-1)^{k+1+pos} times the count of pairs a in I, b in rest
            # with a > b
            col = {}
            summed = False
            for rmask, rest, shifts, t, vals in slots[g]:
                if imask & rmask:
                    continue
                odd = 0
                for shift in shifts:
                    odd += (imask >> shift).bit_count()
                m = imask | rmask
                key = sorted_of.get(m)
                if key is None:
                    key = sorted_of[m] = tuple(sorted(I + rest))
                key = (key, t)
                old = col.get(key)
                if old is None:
                    col[key] = vals[odd & 1]
                else:
                    col[key] = old + vals[odd & 1]
                    summed = True
            for key, w in right:
                key = (key, g)
                old = col.get(key)
                if old is None:
                    col[key] = w
                else:
                    col[key] = old + w
                    summed = True
            cols.append({key: v for key, v in col.items() if v}
                        if summed else col)
    return cols


def _integer_terms(mu):
    """The int coordinates of D mu, D the lcm of mu's denominators.
    delta is linear in mu: D mu's has mu's kernel and image."""
    terms = mu.terms
    D = math.lcm(*(v.denominator for v in terms.values()))
    return {key: v.numerator * (D // v.denominator)
            for key, v in terms.items()}


def cohomology_dims(mu, degrees):
    """[dim H^k for k in degrees], after one Jacobi check for all of
    them: dim H^k = N_k - rank delta^k - rank delta^{k-1}, with N_k =
    C(dim, k) * dim the number of unit k-cochains.  Each delta^j that
    the degrees need is built once from the integer structure D mu
    (_integer_terms); its rank is the length of the fraction-free
    `ratlin.Echelon` of its int columns: no Fraction, no back pass and
    no representatives (`cohomology` computes those)."""
    _require_lie(mu)
    dim, terms = mu.dim, _integer_terms(mu)
    needed = {j for k in degrees for j in (k - 1, k) if 0 <= j < dim}
    ranks = {j: len(ratlin.Echelon.of_columns(_delta_columns(terms, dim, j)))
             for j in needed}
    return [math.comb(dim, k) * dim - ranks.get(k, 0) - ranks.get(k - 1, 0)
            for k in degrees]


# ---------------------------------------------------------------------------
# structure constants JSON
# ---------------------------------------------------------------------------

def structure_constants_from_json(data):
    """Load {"dim": n, "c": [[alpha, beta, gamma, value], ...]} into a
    2-ary MultiMap, enforcing antisymmetry.

    Malformed input raises jsonin.InputError (a ValueError) naming the
    JSON path of the offending value ($.dim, $.c, $.c[i] or $.c[i][j]).
    """
    if isinstance(data, str):
        data = json.loads(data)
    fields(data, "$", ("dim", "c"))
    dim = natural(data["dim"], "$.dim")
    terms = {}
    for r, row in enumerate(array(data["c"], "$.c")):
        path = f"$.c[{r}]"
        alpha, beta, gamma = (natural(x, f"{path}[{j}]", below=dim)
                              for j, x in enumerate(array(row, path, 4)[:3]))
        value = rational(row[3], f"{path}[3]")
        if alpha == beta:
            if value != 0:
                raise InputError(path, "nonzero diagonal structure "
                                       "constant")
            continue
        idx = (min(alpha, beta), max(alpha, beta))
        signed = value if alpha < beta else -value
        if terms.setdefault((idx, gamma), signed) != signed:
            raise InputError(path, "antisymmetry conflict at "
                                   f"{(*idx, gamma)}")
    return MultiMap.of_terms(2, dim, terms)


# ---------------------------------------------------------------------------
# polynomial bundle scaffolding
# ---------------------------------------------------------------------------

def base_gens(m):
    """Polynomial functions on the base: even generators x1..xm."""
    return GeneratorSet([f"x{i + 1}" for i in range(m)], [])
