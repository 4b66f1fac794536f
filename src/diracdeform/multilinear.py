"""Antisymmetric multilinear maps, multiderivations, and Grassmann
derivations over exact rationals.

Three layers share this module:

* NonSymMultiMap - multilinear maps V^n -> V on a finite-dimensional
  rational vector space (the full tensor), with the Gerstenhaber bracket;
  its subclass MultiMap holds the antisymmetric ones on strictly
  increasing index tuples, with the Nijenhuis-Richardson bracket.  The
  Chevalley-Eilenberg differential of a Lie structure mu is
  delta = (-1)^{n+1} [mu, .]_NR on n-cochains.  Both brackets, the
  Jacobi test, delta and its matrix columns (_delta_columns) are built
  from one sparse insertion of a map into a slot of another (_slots,
  _insert), which walks only the coordinates present.
* MultiDerivation - multiderivations of a trivial bundle R^m x R^k with
  polynomial coefficients: antisymmetric maps on sections obeying a
  Leibniz rule in each slot governed by a symbol, with the
  Crainic-Moerdijk bracket.
* GrassmannDerivation - superderivations of the Grassmann algebra of
  bundle forms, with the mutually inverse maps grassmann_L/grassmann_R
  and the algebraic decomposition D = Lie_K + i_L in the tangent model.
  grassmann_L takes the CM bracket to the graded commutator, so
  cm_bracket is computed as grassmann_R of that commutator.

Sign table (point case, m = 0): under the relabeling that regards an
(n+1)-ary MultiMap f as a MultiDerivation D_f of degree n with zero
symbol, the two brackets agree up to a supersign,

    cm_bracket(D_f, D_g) = (-1)^{pq} D_{nr_bracket(f, g)},

for degrees p = arity(f)-1 and q = arity(g)-1.
"""

import itertools
import json
import math
from fractions import Fraction

from . import ratlin
from .jsonin import InputError, array, fields, natural, rational
from .superalg import (
    GeneratorSet,
    NotHomogeneous,
    SuperElement,
    euler_weight,
    merge_monomials,
)


class DimMismatch(Exception):
    pass


class BundleMismatch(Exception):
    pass


class NotLie(Exception):
    pass


class AnchorNotSurjective(Exception):
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

def _zvec(dim):
    return (Fraction(0),) * dim


class NonSymMultiMap:
    """Plain (non-symmetrized) n-linear map V^n -> V, dim V = dim, over Q:
    the full tensor, keyed by index tuples over range(dim).  n = 0
    encodes an element of V."""

    __slots__ = ("n", "dim", "c")

    def __init__(self, n, dim, c=None):
        self.n = n
        self.dim = dim
        store = {}
        for idx, vec in (c or {}).items():
            idx = tuple(idx)
            if len(idx) != n:
                raise ValueError(f"index tuple {idx} has wrong length")
            if not all(0 <= i < dim for i in idx):
                raise ValueError(f"index tuple {idx} leaves range({dim})")
            self._check_key(idx)
            vec = tuple(Fraction(v) for v in vec)
            if len(vec) != dim:
                raise ValueError("value vector has wrong length")
            if any(vec):
                store[idx] = vec
        self.c = store

    @staticmethod
    def _check_key(idx):
        pass

    # -- basics --

    def is_zero(self):
        return not self.c

    @property
    def terms(self):
        """Nonzero coordinates keyed by (index tuple, output index), the
        shape of SuperElement.terms."""
        return {(idx, t): v for idx, vec in self.c.items()
                for t, v in enumerate(vec) if v}

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.dim == other.dim and self.c == other.c)

    __hash__ = None

    def __add__(self, other):
        if self.n != other.n or self.dim != other.dim:
            raise DimMismatch("adding maps of different shape")
        c = dict(self.c)
        for idx, vec in other.c.items():
            cur = c.get(idx, _zvec(self.dim))
            c[idx] = tuple(a + b for a, b in zip(cur, vec))
        return type(self)(self.n, self.dim, c)

    def __neg__(self):
        return self * Fraction(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return type(self)(self.n, self.dim,
                          {i: tuple(scalar * v for v in vec)
                           for i, vec in self.c.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, dim={self.dim}, c={self.c})"

    def eval_indices(self, idx):
        """Value on basis vectors e_{idx[0]}, ..., e_{idx[n-1]}."""
        return self.c.get(tuple(idx), _zvec(self.dim))

    @classmethod
    def zero(cls, n, dim):
        return cls(n, dim, {})


class MultiMap(NonSymMultiMap):
    """Antisymmetric n-linear map V^n -> V: coefficients live on strictly
    increasing index tuples and evaluation extends by antisymmetry."""

    __slots__ = ()

    @staticmethod
    def _check_key(idx):
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"index tuple {idx} not strictly increasing")

    def eval_indices(self, idx):
        key, sign = _sort_sign(idx)
        if key is None:
            return _zvec(self.dim)
        vec = self.c.get(key)
        if vec is None:
            return _zvec(self.dim)
        return tuple(sign * v for v in vec)


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


def _from_terms(cls, n, dim, terms):
    """The map of class cls with the given coordinates {(idx, t): v}."""
    c = {}
    for (idx, t), v in terms.items():
        if v:
            c.setdefault(idx, [0] * dim)[t] = v
    return cls(n, dim, c)


def nr_diamond(f, g):
    """The shuffle insertion f <> g: insert g into the first slot of f and
    sum over (arity(g), arity(f)-1)-shuffles of the arguments."""
    if f.dim != g.dim:
        raise DimMismatch("maps over different spaces")
    return _from_terms(MultiMap, max(f.n + g.n - 1, 0), f.dim,
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
    return min(nr_diamond(mu, mu).c, default=None)


def is_lie(mu):
    """Jacobi test: [mu, mu]_NR = 2 mu <> mu = 0."""
    return first_failing_triple(mu) is None


def ce_differential(mu, f):
    """Chevalley-Eilenberg differential (adjoint coefficients) of the
    n-cochain f; requires mu to be a Lie structure.

    Computed from [mu, f]_NR = (-1)^{n+1} * ce_differential(mu, f).
    """
    if mu.dim != f.dim:
        raise DimMismatch("maps over different spaces")
    _require_lie(mu)
    return _ce_differential(mu, f)


def _require_lie(mu):
    if not is_lie(mu):
        raise NotLie("mu does not satisfy the Jacobi identity")


def _ce_differential(mu, f):
    """ce_differential without the Jacobi check, for callers that have
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
    return [MultiMap(k, dim, {idx: tuple(Fraction(int(t == g))
                                         for t in range(dim))})
            for idx, g in _cochain_basis(k, dim)]


def _delta_columns(mu, k):
    """Columns of the CE differential A^k -> A^{k+1}, without a Jacobi
    check: one dict per element (idx, g) of _cochain_basis(k), holding
    the nonzero coordinates (keyed like MultiMap.terms) of

        delta e = (-1)^{k+1} [mu, e]_NR
                = (-1)^{k+1} mu <> e - e <> mu

    for the unit cochain e = e^idx (x) e_g."""
    mu_terms = mu.terms
    mu_slots = _slots(mu_terms)
    cols = []
    for idx, g in _cochain_basis(k, mu.dim):
        e = {(idx, g): 1}
        col = _insert(mu_slots, e, _psign(k + 1))
        _insert(_slots(e), mu_terms, -1, col)
        cols.append({key: v for key, v in col.items() if v})
    return cols


def cohomology(mu, k):
    """(dim H^k, representative cocycles) for the CE complex of mu in the
    adjoint representation.

    The representatives are the vectors of the canonical (RREF) basis of
    ker delta^k that are independent of im delta^{k-1} and of the
    representatives before them."""
    _require_lie(mu)
    return _cohomology(mu, k)


def cohomology_dims(mu, degrees):
    """[dim H^k for k in degrees], after one Jacobi check for all of
    them, by rank-nullity:

        dim H^k = N_k - rank delta^k - rank delta^{k-1},

    with N_k = C(dim, k) * dim the number of unit k-cochains.  Each
    delta^j that the degrees need is built once, and its rank is the
    length of a forward elimination of its rows: no back pass, no kernel
    basis and no representatives (`cohomology` computes those)."""
    _require_lie(mu)
    dim = mu.dim
    needed = {j for k in degrees for j in (k - 1, k) if 0 <= j < dim}
    ranks = {j: len(ratlin.Echelon(_delta_rows(mu, j))) for j in needed}
    return [math.comb(dim, k) * dim - ranks.get(k, 0) - ranks.get(k - 1, 0)
            for k in degrees]


def _delta_rows(mu, k):
    """The nonzero rows of delta^k, each a dict column index -> value
    over the columns of _delta_columns(mu, k)."""
    rows = {}
    for j, col in enumerate(_delta_columns(mu, k)):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return rows.values()


def _cohomology(mu, k):
    """cohomology without the Jacobi check, for callers that have
    checked mu once."""
    dim = mu.dim
    dom = _cochain_basis(k, dim)
    ker = ratlin.Echelon(ratlin.Echelon(_delta_rows(mu, k)).kernel(len(dom)))
    pos = {key: i for i, key in enumerate(dom)}
    im = ratlin.Echelon({pos[key]: v for key, v in col.items()}
                        for col in (_delta_columns(mu, k - 1) if k else ()))
    hdim = len(ker) - len(im)
    reps = [_from_terms(MultiMap, k, dim,
                        {dom[j]: x for j, x in ker.rows[p].items()})
            for p in sorted(ker.rows) if im.insert(ker.rows[p])]
    assert len(reps) == hdim
    return hdim, reps


# ---------------------------------------------------------------------------
# Gerstenhaber bracket
# ---------------------------------------------------------------------------

def gerstenhaber_bracket(f, g):
    """Graded bracket on non-symmetric multimaps: square-zero 2-ary
    elements are exactly the associative multiplications."""
    if f.dim != g.dim:
        raise DimMismatch("maps over different spaces")

    def circ(a, b):
        # b goes into the consecutive slots pos..pos+n-1 of a
        n, out = b.n, {}
        a_slots = _slots(a.terms)
        for (J, s), w in b.terms.items():
            for pos, rest, t, v in a_slots.get(s, ()):
                key = (rest[:pos] + J + rest[pos:], t)
                out[key] = out.get(key, 0) + _psign(pos * (n - 1)) * w * v
        return _from_terms(NonSymMultiMap, max(a.n + n - 1, 0), a.dim, out)

    sign = _psign((f.n - 1) * (g.n - 1))
    return circ(f, g) - sign * circ(g, f)


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
    entries = {}
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
        key = (min(alpha, beta), max(alpha, beta), gamma)
        signed = value if alpha < beta else -value
        if key in entries and entries[key] != signed:
            raise InputError(path, f"antisymmetry conflict at {key}")
        entries[key] = signed
    c = {}
    for (a, b, g), v in entries.items():
        vec = list(c.get((a, b), _zvec(dim)))
        vec[g] = v
        c[(a, b)] = tuple(vec)
    return MultiMap(2, dim, c)


def structure_constants_to_json(mu):
    rows = []
    for (a, b), vec in sorted(mu.c.items()):
        for g, v in enumerate(vec):
            if v:
                rows.append([a, b, g, str(v)])
    return {"dim": mu.dim, "c": rows}


# ---------------------------------------------------------------------------
# polynomial bundle scaffolding
# ---------------------------------------------------------------------------

def base_gens(m):
    """Polynomial functions on the base: even generators x1..xm."""
    return GeneratorSet([f"x{i + 1}" for i in range(m)], [])


def _det(entries, gens):
    """Determinant of a small square matrix of polynomials."""
    n = len(entries)
    if n == 0:
        return gens.one()
    if n == 1:
        return entries[0][0]
    acc = gens.zero()
    for j in range(n):
        a = entries[0][j]
        if a.is_zero():
            continue
        minor = [[entries[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        acc = acc + ((-1) ** j) * a * _det(minor, gens)
    return acc


class MultiDerivation:
    """Multiderivation of degree p >= -1 on the trivial bundle
    R^m x R^k with polynomial coefficients.

    Determined by its values on the constant frame (an antisymmetric
    table on strictly increasing (p+1)-tuples of frame indices, each
    value a k-tuple of polynomials) and its symbol (an antisymmetric
    table on p-tuples, each value an m-tuple of polynomials read as a
    vector field on the base).  Degree -1 elements are sections; their
    symbol is zero.  Evaluation on arbitrary polynomial sections obeys

        D(s_1,...,f s_i,...,s_n)
            = f D(s_1,...,s_n)
              + (-1)^{n-i} sigma_D(s_1,..^i..,s_n)(f) s_i.
    """

    __slots__ = ("gens", "m", "k", "degree", "frame", "symbol")

    def __init__(self, gens, m, k, degree, frame=None, symbol=None):
        self.gens = gens
        self.m = m
        self.k = k
        self.degree = degree
        nargs = degree + 1
        fstore = {}
        for idx, vec in (frame or {}).items():
            idx = tuple(idx)
            if len(idx) != nargs or list(idx) != sorted(set(idx)) \
                    or not all(0 <= i < k for i in idx):
                raise ValueError(f"bad frame index {idx}")
            vec = tuple(self._as_poly(v) for v in vec)
            if len(vec) != k:
                raise ValueError("frame value has wrong length")
            if any(not v.is_zero() for v in vec):
                fstore[idx] = vec
        sstore = {}
        for idx, vec in (symbol or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)) \
                    or not all(0 <= i < k for i in idx):
                raise ValueError(f"bad symbol index {idx}")
            vec = tuple(self._as_poly(v) for v in vec)
            if len(vec) != m:
                raise ValueError("symbol value has wrong length")
            if any(not v.is_zero() for v in vec):
                sstore[idx] = vec
        if degree < 0 and sstore:
            raise ValueError("sections carry no symbol")
        self.frame = fstore
        self.symbol = sstore

    def _as_poly(self, v):
        if isinstance(v, SuperElement):
            return v
        return self.gens.scalar(v)

    # -- basics --

    @property
    def n_args(self):
        return self.degree + 1

    def is_zero(self):
        return not self.frame and not self.symbol

    def __eq__(self, other):
        return (isinstance(other, MultiDerivation)
                and self.same_bundle(other) and self.degree == other.degree
                and self.frame == other.frame and self.symbol == other.symbol)

    __hash__ = None

    def same_bundle(self, other):
        return (self.gens == other.gens and self.m == other.m
                and self.k == other.k)

    def __add__(self, other):
        if not self.same_bundle(other) or self.degree != other.degree:
            raise BundleMismatch("adding incompatible multiderivations")
        frame = dict(self.frame)
        for idx, vec in other.frame.items():
            cur = frame.get(idx, (self.gens.zero(),) * self.k)
            frame[idx] = tuple(a + b for a, b in zip(cur, vec))
        symbol = dict(self.symbol)
        for idx, vec in other.symbol.items():
            cur = symbol.get(idx, (self.gens.zero(),) * self.m)
            symbol[idx] = tuple(a + b for a, b in zip(cur, vec))
        return MultiDerivation(self.gens, self.m, self.k, self.degree,
                               frame, symbol)

    def __neg__(self):
        return self * Fraction(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return MultiDerivation(
            self.gens, self.m, self.k, self.degree,
            {i: tuple(scalar * v for v in vec)
             for i, vec in self.frame.items()},
            {i: tuple(scalar * v for v in vec)
             for i, vec in self.symbol.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return (f"MultiDerivation(degree={self.degree}, m={self.m}, "
                f"k={self.k}, frame={self.frame}, symbol={self.symbol})")

    @classmethod
    def zero(cls, gens, m, k, degree):
        return cls(gens, m, k, degree)

    # -- sections --

    def basis_section(self, alpha):
        return tuple(self.gens.one() if t == alpha else self.gens.zero()
                     for t in range(self.k))

    def _det_sum(self, table, sections, width):
        """sum over the table of det(sections[i][idx[j]]) * table[idx]: the
        antisymmetric extension of a table on frame-index tuples."""
        out = [self.gens.zero()] * width
        for idx in itertools.combinations(range(self.k), len(sections)):
            vec = table.get(idx)
            if vec is None:
                continue
            coeff = _det([[s[a] for a in idx] for s in sections], self.gens)
            if coeff.is_zero():
                continue
            for t in range(width):
                out[t] = out[t] + coeff * vec[t]
        return out

    @staticmethod
    def _check_count(sections, n):
        if len(sections) != n:
            raise ValueError(f"expected {n} sections, got {len(sections)}")

    def sigma(self, sections):
        """The symbol evaluated on sections: a base vector field."""
        self._check_count(sections, self.degree)
        return tuple(self._det_sum(self.symbol, sections, self.m))

    def sigma_apply(self, sections, f):
        """sigma_D(sections)(f) for a polynomial f on the base."""
        vf = self.sigma(sections)
        acc = self.gens.zero()
        for t in range(self.m):
            if not vf[t].is_zero():
                acc = acc + vf[t] * f.partial_even(self.gens.even[t])
        return acc

    def evaluate(self, sections):
        """Apply to polynomial sections (each a k-tuple of polynomials)."""
        n = self.n_args
        self._check_count(sections, n)
        out = self._det_sum(self.frame, sections, self.k)
        if self.degree >= 1 or (self.degree == 0 and self.symbol):
            for i in range(n):
                others = sections[:i] + sections[i + 1:]
                sign = (-1) ** (n - 1 - i)
                for alpha in range(self.k):
                    f = sections[i][alpha]
                    if f.is_zero():
                        continue
                    corr = self.sigma_apply(others, f)
                    if not corr.is_zero():
                        out[alpha] = out[alpha] + sign * corr
        return tuple(out)


def multiderivation_of_multimap(f, gens=None):
    """Point-case embedding: an (n+1)-ary MultiMap as a degree-n
    multiderivation over an empty base (m = 0)."""
    if gens is None:
        gens = base_gens(0)
    frame = {idx: tuple(gens.scalar(v) for v in vec)
             for idx, vec in f.c.items()}
    return MultiDerivation(gens, 0, f.dim, f.n - 1, frame)


def multimap_of_multiderivation(D):
    if D.m != 0:
        raise BundleMismatch("only point-case multiderivations are multimaps")
    c = {}
    for idx, vec in D.frame.items():
        c[idx] = tuple(next(iter(v.terms.values())) if v.terms else Fraction(0)
                       for v in vec)
    return MultiMap(D.degree + 1, D.k, c)


def tm_bracket_structure(m, gens=None):
    """The commutator of vector fields on R^m as a degree-1
    multiderivation of the tangent model (k = m, anchor = identity)."""
    if gens is None:
        gens = base_gens(m)
    symbol = {}
    for i in range(m):
        vec = [gens.zero()] * m
        vec[i] = gens.one()
        symbol[(i,)] = tuple(vec)
    return MultiDerivation(gens, m, m, 1, {}, symbol)


# ---------------------------------------------------------------------------
# Crainic-Moerdijk bracket
# ---------------------------------------------------------------------------

def cm_bracket(D1, D2):
    """[D1, D2] through the Grassmann representation: the graded
    commutator grassmann_R([grassmann_L D1, grassmann_L D2]).  It is the
    Crainic-Moerdijk bracket (-1)^{pq} D1 o D2 - D2 o D1 with the symbol
    (-1)^{pq} sigma_{D1} o D2 - sigma_{D2} o D1 + [sigma_{D1}, sigma_{D2}];
    against a section s it reads [D, s] = (-1)^p D(s, .)."""
    if not D1.same_bundle(D2):
        raise BundleMismatch("multiderivations over different bundles")
    if D1.degree + D2.degree < -1:
        raise ValueError("bracket of two sections is not defined")
    return grassmann_R(grassmann_L(D1).commutator(grassmann_L(D2)), D1.gens)


def tensorial_of_symbol(D):
    """The symbol of a tangent-model multiderivation, regarded as a
    tensorial multiderivation (frame table = symbol, zero symbol)."""
    if D.m != D.k:
        raise AnchorNotSurjective("tangent model requires k = m")
    return MultiDerivation(D.gens, D.m, D.k, D.degree - 1, dict(D.symbol))


# ---------------------------------------------------------------------------
# Grassmann derivations
# ---------------------------------------------------------------------------

def form_generators(m, k):
    """Generators for bundle forms: base coordinates x1..xm (even) and
    frame one-forms e1..ek (odd)."""
    return GeneratorSet([f"x{i + 1}" for i in range(m)],
                        [f"e{a + 1}" for a in range(k)])


def form_coefficient(form, alpha, base):
    """Coefficient polynomial of the odd monomial e_{alpha} (strictly
    increasing tuple) in a form, over the base generator set."""
    terms = {}
    for (e, o), c in form.terms.items():
        if o == tuple(alpha):
            terms[(tuple(e), ())] = c
    return SuperElement(base, terms)


def _poly_to_form(poly, fgens):
    """Reinterpret a base polynomial over the form generator set."""
    return SuperElement(fgens, {(tuple(e), ()): c
                                for (e, o), c in poly.terms.items()})


class GrassmannDerivation:
    """Degree-kdeg superderivation of the Grassmann algebra of bundle
    forms, determined by its action on the coordinate functions x^i and
    the frame one-forms e^a."""

    __slots__ = ("fgens", "m", "k", "kdeg", "fx", "fe")

    def __init__(self, fgens, m, k, kdeg, fx, fe):
        self.fgens = fgens
        self.m = m
        self.k = k
        self.kdeg = kdeg
        self.fx = tuple(fx)
        self.fe = tuple(fe)
        if len(self.fx) != m or len(self.fe) != k:
            raise ValueError("generator actions have wrong length")

    def same_bundle(self, other):
        return (self.fgens == other.fgens and self.m == other.m
                and self.k == other.k)

    def is_zero(self):
        return (all(f.is_zero() for f in self.fx)
                and all(f.is_zero() for f in self.fe))

    def __eq__(self, other):
        return (isinstance(other, GrassmannDerivation)
                and self.same_bundle(other) and self.kdeg == other.kdeg
                and self.fx == other.fx and self.fe == other.fe)

    __hash__ = None

    def __add__(self, other):
        if not self.same_bundle(other) or self.kdeg != other.kdeg:
            raise BundleMismatch("adding incompatible derivations")
        return GrassmannDerivation(
            self.fgens, self.m, self.k, self.kdeg,
            [a + b for a, b in zip(self.fx, other.fx)],
            [a + b for a, b in zip(self.fe, other.fe)])

    def __neg__(self):
        return self * Fraction(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return GrassmannDerivation(self.fgens, self.m, self.k, self.kdeg,
                                   [scalar * f for f in self.fx],
                                   [scalar * f for f in self.fe])

    __rmul__ = __mul__

    def apply(self, form):
        """Extend to any form by the superderivation rule."""
        fgens = self.fgens
        out = fgens.zero()
        for (e, o), c in form.terms.items():
            # function part: D(x^e) wedge (odd part)
            odd_elt = fgens.monomial(1, odd_names=[fgens.odd[t] for t in o])
            for i in range(self.m):
                if e[i] == 0 or self.fx[i].is_zero():
                    continue
                de = list(e)
                de[i] -= 1
                mono = SuperElement(fgens, {(tuple(de), ()): c * e[i]})
                out = out + mono * self.fx[i] * odd_elt
            # one-form part with the superderivation sign
            for j, t in enumerate(o):
                sign = _psign(j * self.kdeg)
                head = SuperElement(fgens, {(e, o[:j]): sign * c})
                suffix = fgens.monomial(
                    1, odd_names=[fgens.odd[u] for u in o[j + 1:]])
                out = out + head * self.fe[t] * suffix
        return out

    def commutator(self, other):
        """[D1, D2] = D1 D2 - (-1)^{k1 k2} D2 D1."""
        if not self.same_bundle(other):
            raise BundleMismatch("derivations over different bundles")
        sign = _psign(self.kdeg * other.kdeg)
        fgens = self.fgens
        fx, fe = [], []
        for i in range(self.m):
            xi = fgens.gen(fgens.even[i])
            fx.append(self.apply(other.apply(xi))
                      - sign * other.apply(self.apply(xi)))
        for a in range(self.k):
            ea = fgens.gen(fgens.odd[a])
            fe.append(self.apply(other.apply(ea))
                      - sign * other.apply(self.apply(ea)))
        return GrassmannDerivation(fgens, self.m, self.k,
                                   self.kdeg + other.kdeg, fx, fe)

    @classmethod
    def zero(cls, fgens, m, k, kdeg):
        return cls(fgens, m, k, kdeg,
                   [fgens.zero()] * m, [fgens.zero()] * k)


def grassmann_L(D, fgens=None):
    """The form-side derivation of a multiderivation: on functions it is
    the symbol, on frame one-forms minus the frame table, at every
    degree; a section s goes to -i_s."""
    if fgens is None:
        fgens = form_generators(D.m, D.k)
    p = D.degree
    fx = []
    for i in range(D.m):
        acc = fgens.zero()
        for idx, vec in D.symbol.items():
            if vec[i].is_zero():
                continue
            mono = fgens.monomial(1, odd_names=[fgens.odd[t] for t in idx])
            acc = acc + _poly_to_form(vec[i], fgens) * mono
        fx.append(acc)
    fe = insertion_operator(fgens, D.m, D.k, D.frame, p).fe
    return GrassmannDerivation(fgens, D.m, D.k, p, fx, [-f for f in fe])


def grassmann_R(Dform, base=None):
    """Inverse of grassmann_L: the symbol is the action on functions and
    the frame table minus the action on frame one-forms."""
    if base is None:
        base = base_gens(Dform.m)
    kdeg = Dform.kdeg
    m, k = Dform.m, Dform.k
    frame = {}
    for idx in itertools.combinations(range(k), kdeg + 1):
        vec = [-form_coefficient(Dform.fe[b], idx, base)
               for b in range(k)]
        if any(not v.is_zero() for v in vec):
            frame[idx] = tuple(vec)
    symbol = {}
    if kdeg >= 0:
        for idx in itertools.combinations(range(k), kdeg):
            vec = [form_coefficient(Dform.fx[i], idx, base)
                   for i in range(m)]
            if any(not v.is_zero() for v in vec):
                symbol[idx] = tuple(vec)
    return MultiDerivation(base, m, k, kdeg, frame, symbol)


def insertion_operator(fgens, m, k, L, kdeg):
    """The algebraic derivation i_L for a frame-valued form L given as
    {increasing (kdeg+1)-tuple: k-tuple of base polynomials}."""
    fx = [fgens.zero() for _ in range(m)]
    fe = []
    for b in range(k):
        acc = fgens.zero()
        for idx, vec in L.items():
            if vec[b].is_zero():
                continue
            mono = fgens.monomial(1, odd_names=[fgens.odd[t] for t in idx])
            acc = acc + _poly_to_form(vec[b], fgens) * mono
        fe.append(acc)
    return GrassmannDerivation(fgens, m, k, kdeg, fx, fe)


def tangent_d(fgens, m):
    """The de Rham differential of the tangent model in the coordinate
    frame: d x^i = e^i, d e^i = 0."""
    fx = [fgens.gen(fgens.odd[i]) for i in range(m)]
    fe = [fgens.zero() for _ in range(m)]
    return GrassmannDerivation(fgens, m, m, 1, fx, fe)


def lie_operator(fgens, m, K, kdeg):
    """Lie_K = [i_K, d] for a tangent-model form K in Omega^kdeg(M, TM)
    given as {increasing kdeg-tuple: m-tuple of base polynomials}."""
    iK = insertion_operator(fgens, m, m, K, kdeg - 1)
    return iK.commutator(tangent_d(fgens, m))


def algebraic_decompose(Dform, base=None):
    """Split a tangent-model Grassmann derivation as Lie_K + i_L with
    K in Omega^kdeg(M, TM) and L in Omega^{kdeg+1}(M, TM), both unique.
    """
    if Dform.m != Dform.k:
        raise AnchorNotSurjective("decomposition implemented for the "
                                  "tangent model k = m only")
    if base is None:
        base = base_gens(Dform.m)
    m, kdeg = Dform.m, Dform.kdeg
    K = {}
    for idx in itertools.combinations(range(m), kdeg):
        vec = [form_coefficient(Dform.fx[i], idx, base) for i in range(m)]
        if any(not v.is_zero() for v in vec):
            K[idx] = tuple(vec)
    rest = Dform - lie_operator(Dform.fgens, m, K, kdeg)
    if any(not f.is_zero() for f in rest.fx):
        raise AnchorNotSurjective("residual action on functions; "
                                  "derivation is not of tangent type")
    L = {}
    for idx in itertools.combinations(range(m), kdeg + 1):
        vec = [form_coefficient(rest.fe[b], idx, base) for b in range(m)]
        if any(not v.is_zero() for v in vec):
            L[idx] = tuple(vec)
    return K, L


# ---------------------------------------------------------------------------
# the isomorphism with fiberwise-linear multivector fields
# ---------------------------------------------------------------------------

def multivector_generators(m, k):
    """Generators for multivector fields on the dual bundle: base
    coordinates x1..xm and linear fiber coordinates v1..vk (even), with
    conjugate odd symbols xh1..xhm, vh1..vhk in matching order."""
    even = [f"x{i + 1}" for i in range(m)] + [f"v{a + 1}" for a in range(k)]
    odd = [f"xh{i + 1}" for i in range(m)] + [f"vh{a + 1}" for a in range(k)]
    return GeneratorSet(even, odd)


def _mv_eval(P, glist):
    """P(dg_1, ..., dg_r) for a homogeneous r-vector field P, by the
    determinant convention."""
    gens = P.gens
    r = len(glist)
    acc = gens.zero()
    for (e, o), c in P.terms.items():
        if len(o) != r:
            continue
        entries = [[g.partial_even(gens.even[oj]) for oj in o]
                   for g in glist]
        d = _det(entries, gens)
        if d.is_zero():
            continue
        acc = acc + SuperElement(gens, {(e, ()): c}) * d
    return acc


def _fiber_split(F, m, k, base, want_weight):
    """Split a function on the dual bundle: fiber-linear F into k section
    components (want_weight = 1) or basic F into one polynomial
    (want_weight = 0)."""
    if want_weight == 1:
        comps = [base.zero() for _ in range(k)]
        for (e, o), c in F.terms.items():
            vpart = e[m:]
            if sum(vpart) != 1:
                raise NotHomogeneous("expected a fiberwise-linear function")
            beta = vpart.index(1)
            comps[beta] = comps[beta] + SuperElement(
                base, {(tuple(e[:m]), ()): c})
        return comps
    out = base.zero()
    for (e, o), c in F.terms.items():
        if any(e[m:]):
            raise NotHomogeneous("expected a basic function")
        out = out + SuperElement(base, {(tuple(e[:m]), ()): c})
    return out


def iso_I(P, m, k, base=None):
    """Map a homogeneous fiberwise-linear multivector field on the dual
    bundle to a multiderivation: a kdeg-vector field of fiber weight
    1 - kdeg goes to degree kdeg - 1."""
    gens = multivector_generators(m, k)
    if P.gens != gens:
        raise BundleMismatch("multivector field over unexpected generators")
    if base is None:
        base = base_gens(m)
    kdeg = P.odd_degree()
    if not P.is_zero():
        w = euler_weight(P, [f"v{a + 1}" for a in range(k)],
                         [f"vh{a + 1}" for a in range(k)])
        if w != 1 - kdeg:
            raise NotHomogeneous(
                f"fiber weight {w}, expected {1 - kdeg}")
    sgn = (-1) ** (kdeg * (kdeg - 1) // 2)
    vgens = [gens.gen(f"v{a + 1}") for a in range(k)]
    xgens = [gens.gen(f"x{i + 1}") for i in range(m)]
    frame = {}
    for idx in itertools.combinations(range(k), kdeg):
        F = sgn * _mv_eval(P, [vgens[a] for a in idx])
        comps = _fiber_split(F, m, k, base, 1)
        if any(not v.is_zero() for v in comps):
            frame[idx] = tuple(comps)
    symbol = {}
    if kdeg >= 1:
        for idx in itertools.combinations(range(k), kdeg - 1):
            vec = []
            for i in range(m):
                F = sgn * _mv_eval(P, [vgens[a] for a in idx] + [xgens[i]])
                vec.append(_fiber_split(F, m, k, base, 0))
            if any(not v.is_zero() for v in vec):
                symbol[idx] = tuple(vec)
    return MultiDerivation(base, m, k, kdeg - 1, frame, symbol)


def iso_I_inv(D):
    """Inverse of iso_I: with kdeg = D.degree + 1 and the sign
    sgn = (-1)^(kdeg (kdeg - 1)/2) of iso_I,

        P = sum sgn frame[idx][beta] v_beta vh_idx
            + sum sgn (-1)^(kdeg - 1) symbol[gam][i] xh_i vh_gam,

    each base polynomial lifted to the dual bundle by k zero fiber
    exponents."""
    m, k = D.m, D.k
    gens = multivector_generators(m, k)
    kdeg = D.degree + 1
    sgn = (-1) ** (kdeg * (kdeg - 1) // 2)
    pad = (0,) * k

    def lift(poly):
        return SuperElement(gens, {(e + pad, ()): c
                                   for (e, o), c in poly.terms.items()})

    P = gens.zero()
    for idx, comps in D.frame.items():
        vh = [f"vh{a + 1}" for a in idx]
        for beta, poly in enumerate(comps):
            P = P + lift(poly) * gens.monomial(sgn, {f"v{beta + 1}": 1}, vh)
    for gam, comps in D.symbol.items():
        vh = [f"vh{a + 1}" for a in gam]
        for i, poly in enumerate(comps):
            P = P + lift(poly) * gens.monomial(sgn * (-1) ** (kdeg - 1),
                                               None, [f"xh{i + 1}"] + vh)
    return P
