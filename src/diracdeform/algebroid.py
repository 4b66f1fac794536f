"""Lie algebroid deformations (Crainic-Moerdijk) and the Lie deformation
theory around them: what the CLI does not run, over exact rationals.
`diracdeform.cli` does not import this module, so no job compiles it;
`test_acceptance` pins its claims.

* Chevalley-Eilenberg cochains of a Lie structure: the differential,
  cohomology with representatives, and the Gerstenhaber bracket.
* MultiDerivation - multiderivations of a trivial bundle R^m x R^k with
  polynomial coefficients: antisymmetric maps on sections obeying a
  Leibniz rule in each slot governed by a symbol, with the
  Crainic-Moerdijk bracket.
* GrassmannDerivation - superderivations of the Grassmann algebra of
  bundle forms, with the mutually inverse maps grassmann_L/grassmann_R
  and the algebraic decomposition D = Lie_K + i_L in the tangent model.
  grassmann_L takes the CM bracket to the graded commutator, so
  cm_bracket is computed as grassmann_R of that commutator.
* Formal power series of coefficients, Lie deformations up to
  equivalence (`apply_equivalence`, `gerstenhaber_normalize`,
  `rigidity_check`), and the linear-Poisson mirror of the Lie engine
  (`linear_poisson_deform`), all on `lie_deform.mc_extend`.

Sign table (point case, m = 0): under the relabeling that regards an
(n+1)-ary MultiMap f as a MultiDerivation D_f of degree n with zero
symbol, the two brackets agree up to a supersign,

    cm_bracket(D_f, D_g) = (-1)^{pq} D_{nr_bracket(f, g)},

for degrees p = arity(f)-1 and q = arity(g)-1.
"""

import itertools
from fractions import Fraction
from functools import partial

from . import ratlin
from .brackets import SCHOUTEN, BracketContext
from .lie_deform import (
    DEFAULT_ORDER,
    Differential,
    Order0NotLie,
    _lie_differential,
    extend_series,
    mc_extend,
)
from .multilinear import (
    DimMismatch,
    MultiMap,
    NonSymMultiMap,
    _ce_differential,
    _cochain_basis,
    _delta_columns,
    _delta_rows,
    _from_terms,
    _psign,
    _require_lie,
    _slots,
    _zvec,
    base_gens,
    is_lie,
    nr_bracket,
    nr_diamond,
)
from .superalg import GeneratorSet, NotHomogeneous, SuperElement


class BundleMismatch(Exception):
    pass


class AnchorNotSurjective(Exception):
    pass


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cochains and the Gerstenhaber bracket
# ---------------------------------------------------------------------------

def ce_differential(mu, f):
    """Chevalley-Eilenberg differential (adjoint coefficients) of the
    n-cochain f; requires mu to be a Lie structure.

    Computed from [mu, f]_NR = (-1)^{n+1} * ce_differential(mu, f).
    """
    if mu.dim != f.dim:
        raise DimMismatch("maps over different spaces")
    _require_lie(mu)
    return _ce_differential(mu, f)


def cohomology(mu, k):
    """(dim H^k, representative cocycles) for the CE complex of mu in the
    adjoint representation.

    The representatives are the vectors of the canonical (RREF) basis of
    ker delta^k that are independent of im delta^{k-1} and of the
    representatives before them."""
    _require_lie(mu)
    return _cohomology(mu, k)


def _cohomology(mu, k):
    """cohomology without the Jacobi check, for callers that have
    checked mu once."""
    dim, terms = mu.dim, mu.terms
    dom = _cochain_basis(k, dim)
    ker = ratlin.Echelon(ratlin.Echelon(_delta_rows(terms, dim, k))
                         .kernel(len(dom)))
    pos = {key: i for i, key in enumerate(dom)}
    im = ratlin.Echelon({pos[key]: v for key, v in col.items()} for col in
                        (_delta_columns(terms, dim, k - 1) if k else ()))
    hdim = len(ker) - len(im)
    reps = [_from_terms(MultiMap, k, dim,
                        {dom[j]: x for j, x in ker.rows[p].items()})
            for p in sorted(ker.rows) if im.insert(ker.rows[p])]
    assert len(reps) == hdim
    return hdim, reps


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
# multiderivations and the Crainic-Moerdijk bracket
# ---------------------------------------------------------------------------

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


def euler_weight(a, fiber_even, conjugate_odd):
    """Homogeneity degree for the Euler field of the fiber variables.

    Weight of a monomial = total exponent of the designated even fiber
    variables minus the number of odd factors conjugate to them.  Returns
    the common weight, raising NotHomogeneous on mixed weights.
    """
    fe = {a.gens.even_index(n) for n in fiber_even}
    co = {a.gens.odd_index(n) for n in conjugate_odd}
    ws = set()
    for (e, o) in a.terms:
        w = sum(x for i, x in enumerate(e) if i in fe)
        w -= sum(1 for i in o if i in co)
        ws.add(w)
    if len(ws) > 1:
        raise NotHomogeneous("mixed fiber weights")
    return ws.pop() if ws else 0


# ---------------------------------------------------------------------------
# formal power series
# ---------------------------------------------------------------------------

class NotInvertible(Exception):
    pass


class FormalSeries:
    """Truncated formal power series a_0 + t a_1 + ... + t^N a_N with
    coefficients in any additive space; products are Cauchy convolutions
    against a caller-supplied bilinear multiplication."""

    __slots__ = ("order", "coeffs", "zero")

    def __init__(self, order, coeffs, zero):
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation order")
        while len(coeffs) < order + 1:
            coeffs.append(zero)
        self.order = order
        self.coeffs = coeffs
        self.zero = zero

    def __getitem__(self, k):
        if 0 <= k <= self.order:
            return self.coeffs[k]
        return self.zero

    def __eq__(self, other):
        return (isinstance(other, FormalSeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __add__(self, other):
        n = min(self.order, other.order)
        return FormalSeries(n, [self[k] + other[k] for k in range(n + 1)],
                            self.zero)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return FormalSeries(n, [self[k] - other[k] for k in range(n + 1)],
                            self.zero)

    def __neg__(self):
        return FormalSeries(self.order, [-c for c in self.coeffs], self.zero)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return FormalSeries(self.order,
                            [scalar * c for c in self.coeffs], self.zero)

    def convolve(self, other, mul, zero=None):
        """Cauchy product using the bilinear multiplication mul."""
        n = min(self.order, other.order)
        if zero is None:
            zero = self.zero
        out = []
        for k in range(n + 1):
            acc = zero
            for i in range(k + 1):
                acc = acc + mul(self[i], other[k - i])
            out.append(acc)
        return FormalSeries(n, out, zero)

    def shift(self, j):
        """Multiply by t^j."""
        coeffs = [self.zero] * j + self.coeffs
        return FormalSeries(self.order, coeffs[:self.order + 1], self.zero)

    def is_zero(self):
        return all(_coeff_is_zero(c) for c in self.coeffs)


def _coeff_is_zero(c):
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


def series_exponential(a, mul, unit):
    """exp of a series whose constant term vanishes."""
    if not _coeff_is_zero(a[0]):
        raise ValueError("exp needs a series starting at order >= 1")
    out = FormalSeries(a.order, [unit], a.zero)
    power = FormalSeries(a.order, [unit], a.zero)
    fact = 1
    for j in range(1, a.order + 1):
        power = power.convolve(a, mul)
        fact *= j
        out = out + power.scale(Fraction(1, fact))
    return out


def series_logarithm(a, mul, unit):
    """ln of a series with constant term equal to the unit."""
    if not _coeff_is_zero(a[0] - unit):
        raise ValueError("ln needs a series with unit constant term")
    b = a - FormalSeries(a.order, [unit], a.zero)
    out = FormalSeries(a.order, [], a.zero)
    power = FormalSeries(a.order, [unit], a.zero)
    for j in range(1, a.order + 1):
        power = power.convolve(b, mul)
        out = out + power.scale(Fraction((-1) ** (j + 1), j))
    return out


# ---------------------------------------------------------------------------
# linear-map series helpers (arity-1 MultiMaps)
# ---------------------------------------------------------------------------

def identity_map(dim):
    return MultiMap(1, dim, {(i,): tuple(Fraction(1) if t == i else 0
                                         for t in range(dim))
                             for i in range(dim)})


def invert_series(phi, dim):
    """Inverse of a linear-map series with invertible leading term (the
    engine requires phi_0 = id)."""
    if phi[0] != identity_map(dim):
        raise NotInvertible("series must start at the identity")
    inv = [identity_map(dim)]
    for k in range(1, phi.order + 1):
        acc = MultiMap.zero(1, dim)
        for i in range(1, k + 1):
            acc = acc + nr_diamond(phi[i], inv[k - i])
        inv.append(-acc)
    return FormalSeries(phi.order, inv, MultiMap.zero(1, dim))


def _pre_compose2(f, phi_a, phi_b):
    """f(phi_a x, phi_b y) antisymmetrized, for a 2-ary MultiMap f."""
    dim = f.dim
    c = {}
    for a, b in itertools.combinations(range(dim), 2):
        va = phi_a.eval_indices((a,))
        vb = phi_b.eval_indices((b,))
        out = list(_zvec(dim))
        for i, ca in enumerate(va):
            if ca == 0:
                continue
            for j, cb in enumerate(vb):
                if cb == 0:
                    continue
                val = f.eval_indices((i, j))
                for t in range(dim):
                    out[t] += ca * cb * val[t]
        if any(out):
            c[(a, b)] = tuple(out)
    return MultiMap(2, dim, c)


# ---------------------------------------------------------------------------
# Lie deformations: residuals, equivalences, rigidity
# ---------------------------------------------------------------------------

def mc_residual_lie(mu_series):
    """Per-order residuals of [mu_t, mu_t]_NR; the order-0 coefficient
    must be a Lie structure."""
    mu0 = mu_series[0]
    if not is_lie(mu0):
        raise Order0NotLie("order-0 term violates the Jacobi identity")
    return mu_series.convolve(mu_series, nr_bracket,
                              MultiMap.zero(3, mu0.dim))


def extend_one_order(prefix):
    """Given mu_0..mu_{k-1} satisfying MC through order k-1, solve for
    mu_k or certify the obstruction class."""
    return extend_series(prefix, len(prefix))[1][-1]


def apply_equivalence(phi_series, mu_series):
    """mu'_t(x, y) = phi_t^{-1}(mu_t(phi_t x, phi_t y))."""
    dim = mu_series[0].dim
    inv = invert_series(phi_series, dim)
    n = min(phi_series.order, mu_series.order)
    out = []
    for kk in range(n + 1):
        acc = MultiMap.zero(2, dim)
        for a in range(kk + 1):
            for b2 in range(kk - a + 1):
                c = kk - a - b2
                inner = _pre_compose2(mu_series[a], phi_series[b2],
                                      phi_series[c])
                acc = acc + inner
        out.append(acc)
    pre = FormalSeries(n, out, MultiMap.zero(2, dim))
    return inv.convolve(pre, nr_diamond, MultiMap.zero(2, dim))


def gerstenhaber_normalize(mu_series, order):
    """If mu_order is exact, return (phi_series, normalized series) with
    the order-n term removed; otherwise return None."""
    mu0 = mu_series[0]
    dim = mu0.dim
    cert = _lie_differential(mu0, 1).solve(order, mu_series[order])
    if not cert.extends:
        return None
    phi_n = cert.solution
    coeffs = [identity_map(dim)]
    coeffs += [MultiMap.zero(1, dim)] * (order - 1)
    # mu'_1..: removing t^n mu_n needs phi_t = id - t^n phi_n since
    # mu'_n - mu_n = delta phi_n and [mu0, phi]_NR = delta phi here
    coeffs.append(-phi_n)
    phi = FormalSeries(mu_series.order, coeffs, MultiMap.zero(1, dim))
    return phi, apply_equivalence(phi, mu_series)


def rigidity_check(mu0):
    """("RIGID" | "NOT_RIGID", dim H^2)."""
    h2, _ = cohomology(mu0, 2)
    return ("RIGID" if h2 == 0 else "NOT_RIGID", h2)


# ---------------------------------------------------------------------------
# linear-Poisson mirror
# ---------------------------------------------------------------------------

def poisson_context(k):
    """Schouten context on the dual of a k-dimensional Lie algebra
    (point base: coordinates v_a with conjugate odd symbols vh_a)."""
    gens = multivector_generators(0, k)
    ctx = BracketContext(SCHOUTEN, gens,
                         conjugate={i: i for i in range(k)})
    return gens, ctx


def _check_linear_bivector(gens, k, P):
    if P.is_zero():
        return
    for (e, o) in P.terms:
        if len(o) != 2:
            raise NotHomogeneous("expected a bivector")
    w = euler_weight(P, [f"v{a + 1}" for a in range(k)],
                     [f"vh{a + 1}" for a in range(k)])
    if w != -1:
        raise NotHomogeneous(f"fiber weight {w}, expected -1")


def _linear_multivector_basis(gens, k, deg):
    """Monomial basis of fiber-weight (1 - deg) multivectors with
    constant coefficients."""
    out = []
    for alpha in itertools.combinations(range(k), deg):
        for beta in range(k):
            out.append(gens.monomial(1, {f"v{beta + 1}": 1},
                                     [f"vh{a + 1}" for a in alpha]))
    return out


def linear_poisson_deform(prefix, k, order=None):
    """Order-by-order extension of a linear Poisson structure pi_t on
    the dual of a k-dimensional Lie algebra; mirrors extend_series.

    prefix is a list of SuperElements over multivector_generators(0, k),
    each a fiber-weight -1 bivector.  The order-n equation is
    [pi_0, pi_n] = -1/2 sum_{i=1}^{n-1} [pi_i, pi_{n-i}] (Schouten), solved
    over the constant-coefficient linear bivectors.  Returns
    (coefficients, certificates).
    """
    gens, ctx = poisson_context(k)
    for P in prefix:
        _check_linear_bivector(gens, k, P)
    pi0 = prefix[0]
    if not ctx.schouten(pi0, pi0).is_zero():
        raise Order0NotLie("pi_0 is not Poisson")
    d = Differential(partial(ctx.schouten, pi0),
                     partial(_linear_multivector_basis, gens, k, 2),
                     gens.zero(), spans=True)

    def rhs(coeffs, n):
        R = gens.zero()
        for i in range(1, n):
            R = R + ctx.schouten(coeffs[i], coeffs[n - i])
        return Fraction(-1, 2) * R

    return mc_extend(d, rhs, prefix,
                     DEFAULT_ORDER if order is None else order, Order0NotLie)


def poisson_apply_equivalence(pi_series, X_series, k):
    """pi'_t = exp(t ad_{X_t}) pi_t for X_t a series of fiber-weight-0
    vector fields; first-order relation pi'_1 - pi_1 = [pi_0, X_0]."""
    gens, ctx = poisson_context(k)
    n = pi_series.order

    def ad(P):
        # t [P, X_t], order-by-order
        out = []
        for kk in range(n + 1):
            acc = gens.zero()
            for i in range(kk):
                acc = acc + ctx.schouten(P[kk - 1 - i], X_series[i])
            out.append(acc)
        return FormalSeries(n, out, gens.zero())

    out = pi_series
    term = pi_series
    fact = 1
    for j in range(1, n + 1):
        term = ad(term)
        fact *= j
        out = out + term.scale(Fraction(1, fact))
    return out
