"""Free supercommutative algebra Q[even] (x) Lambda(odd).

Elements are sparse maps {(even_exponents, odd_index_tuple): Fraction}.
Odd index tuples are kept strictly increasing; the Koszul sign of every
reordering is absorbed into the coefficient at construction time, so
equality is plain dict comparison.
"""

from fractions import Fraction


class GeneratorMismatch(Exception):
    pass


class UnknownGenerator(Exception):
    pass


class NotHomogeneous(Exception):
    pass


class ParseError(ValueError):
    pass


def merge_monomials(e1, o1, e2, o2):
    """Product of the monomials (e1, o1) and (e2, o2).

    `e` is a tuple of even exponents, `o` a strictly increasing tuple of
    odd indices.  Returns (even, odd, sign), where sign is the Koszul
    sign of interleaving o1 and o2, or None when an odd index repeats
    (odd square = 0).
    """
    even = tuple(a + b for a, b in zip(e1, e2))
    if not o1:
        return even, o2, 1
    if not o2:
        return even, o1, 1
    # Count inversions: pairs (a in o1, b in o2) with a > b.  Each such
    # pair contributes one transposition when sorting o1 ++ o2.
    inversions = 0
    merged = []
    i = j = 0
    n1, n2 = len(o1), len(o2)
    while i < n1 and j < n2:
        a, b = o1[i], o2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            inversions += n1 - i
    merged.extend(o1[i:])
    merged.extend(o2[j:])
    return even, tuple(merged), (-1 if inversions & 1 else 1)


def add_product(terms, t1, t2):
    """Add the product of the term dicts t1 and t2 into terms, in place,
    and return terms; a sum that cancels leaves no key."""
    get = terms.get
    for (e1, o1), c1 in t1.items():
        for (e2, o2), c2 in t2.items():
            merged = merge_monomials(e1, o1, e2, o2)
            if merged is None:
                continue
            ee, oo, sign = merged
            key = (ee, oo)
            s = get(key, 0) + c1 * c2 if sign > 0 else get(key, 0) - c1 * c2
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms


class GeneratorSet:
    """Named even and odd generators.

    `momentum` designates the even indices that count toward both sides
    of the (epsilon, lambda) bigrading; `odd_lower`/`odd_upper` split the
    odd indices for the same purpose and `odd_dual` pairs them.
    """

    def __init__(self, even, odd, momentum=(), odd_lower=(), odd_upper=(),
                 odd_dual=None):
        self.even = tuple(even)
        self.odd = tuple(odd)
        names = self.even + self.odd
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self._even_index = {n: i for i, n in enumerate(self.even)}
        self._odd_index = {n: i for i, n in enumerate(self.odd)}
        self.momentum = frozenset(momentum)
        self.odd_lower = frozenset(odd_lower)
        self.odd_upper = frozenset(odd_upper)
        self.odd_dual = dict(odd_dual) if odd_dual else {}

    @property
    def n_even(self):
        return len(self.even)

    def even_index(self, name):
        if name not in self._even_index:
            raise UnknownGenerator(name)
        return self._even_index[name]

    def odd_index(self, name):
        if name not in self._odd_index:
            raise UnknownGenerator(name)
        return self._odd_index[name]

    def __eq__(self, other):
        return (isinstance(other, GeneratorSet)
                and self.even == other.even and self.odd == other.odd
                and self.momentum == other.momentum
                and self.odd_lower == other.odd_lower
                and self.odd_upper == other.odd_upper
                and self.odd_dual == other.odd_dual)

    def __hash__(self):
        return hash((self.even, self.odd))

    def __repr__(self):
        return f"GeneratorSet(even={self.even}, odd={self.odd})"

    # -- element constructors -------------------------------------------

    def zero(self):
        return SuperElement(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return SuperElement(self, {((0,) * self.n_even, ()): c})

    def gen(self, name):
        """The generator with the given name, as an element."""
        if name in self._even_index:
            e = [0] * self.n_even
            e[self._even_index[name]] = 1
            return SuperElement(self, {(tuple(e), ()): Fraction(1)})
        if name in self._odd_index:
            e = (0,) * self.n_even
            return SuperElement(self, {(e, (self._odd_index[name],)): Fraction(1)})
        raise UnknownGenerator(name)

    def monomial(self, coeff, even_powers=None, odd_names=()):
        """Monomial from {even_name: power} and an odd factor sequence."""
        out = self.scalar(coeff)
        for name, p in (even_powers or {}).items():
            out = out * self.gen(name) ** p
        for name in odd_names:
            out = out * self.gen(name)
        return out


class SuperElement:
    __slots__ = ("gens", "terms")
    __hash__ = None

    def __init__(self, gens, terms):
        self.gens = gens
        self.terms = terms

    # -- basics ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, SuperElement):
            return self.gens == other.gens and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.gens.scalar(other)
        return NotImplemented

    def __neg__(self):
        return SuperElement(self.gens, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return SuperElement(self.gens, terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) - c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return SuperElement(self.gens, terms)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, SuperElement):
            if other.gens is not self.gens and other.gens != self.gens:
                raise GeneratorMismatch("elements over different generators")
            return other
        return self.gens.scalar(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.gens.zero()
            return SuperElement(self.gens,
                                {m: cc * c for m, cc in self.terms.items()})
        other = self._coerce(other)
        return SuperElement(self.gens,
                            add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = self.gens.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return f"SuperElement({to_text(self)!r})"

    # -- grading --------------------------------------------------------

    def odd_degree(self):
        """Common odd degree of all monomials; NotHomogeneous otherwise."""
        degs = {len(o) for (_, o) in self.terms}
        if len(degs) > 1:
            raise NotHomogeneous("mixed odd degrees")
        return degs.pop() if degs else 0

    # -- calculus -------------------------------------------------------

    def partial_even(self, var):
        return self.partial_even_at(self.gens.even_index(var))

    def partial_odd(self, var, side="left"):
        return self.partial_odd_at(self.gens.odd_index(var), side == "left")

    # Lowering one exponent, or dropping one odd index, is injective on
    # the monomials that hold it: each key below is built once, and no
    # two terms meet.

    def partial_even_at(self, i):
        """d/dx for the even generator x of index i."""
        if not 0 <= i < len(self.gens.even):
            raise UnknownGenerator(f"even index {i}")
        terms = {}
        for (e, o), c in self.terms.items():
            p = e[i]
            if p:
                terms[(e[:i] + (p - 1,) + e[i + 1:], o)] = c * p
        return SuperElement(self.gens, terms)

    def partial_odd_at(self, i, left=True):
        """The left (or right) derivative by the odd generator of index
        i; its sign is the parity of the factors it passes."""
        if not 0 <= i < len(self.gens.odd):
            raise UnknownGenerator(f"odd index {i}")
        terms = {}
        for (e, o), c in self.terms.items():
            if i in o:
                pos = o.index(i)
                passed = pos if left else len(o) - 1 - pos
                terms[(e, o[:pos] + o[pos + 1:])] = -c if passed & 1 else c
        return SuperElement(self.gens, terms)


def bidegree(gens, monomial):
    """(epsilon, lambda) of a single monomial key (even, odd)."""
    e, o = monomial
    pdeg = sum(e[i] for i in gens.momentum)
    lower = sum(1 for i in o if i in gens.odd_lower)
    upper = sum(1 for i in o if i in gens.odd_upper)
    return (pdeg + lower, pdeg + upper)


def bidegree_components(a):
    """Split a by the (epsilon, lambda) bigrading; values sum back to a."""
    comps = {}
    for m, c in a.terms.items():
        key = bidegree(a.gens, m)
        comps.setdefault(key, {})[m] = c
    return {k: SuperElement(a.gens, t) for k, t in sorted(comps.items())}


# -- text grammar -------------------------------------------------------

def to_text(a):
    """Print in the grammar `3/2 q1^2 p_1 a_1 a^2`; terms joined by ' + '.

    Canonical term order: even exponent tuple lexicographic, then odd
    index tuple; round-trips bit-exactly through parse().
    """
    if not a.terms:
        return "0"
    parts = []
    for (e, o) in sorted(a.terms):
        c = a.terms[(e, o)]
        toks = [str(c)]
        for i, p in enumerate(e):
            if p == 1:
                toks.append(a.gens.even[i])
            elif p > 1:
                toks.append(f"{a.gens.even[i]}^{p}")
        for i in o:
            toks.append(a.gens.odd[i])
        parts.append(" ".join(toks))
    return " + ".join(parts)


def _is_rational_token(tok):
    body = tok[1:] if tok[:1] in "+-" else tok
    if "/" in body:
        num, _, den = body.partition("/")
        return num.isdigit() and den.isdigit()
    return body.isdigit()


def parse(gens, text):
    """Inverse of to_text; also accepts omitted unit coefficients."""
    text = text.strip()
    if text == "0" or not text:
        return gens.zero()
    result = gens.zero()
    for term in text.split(" + "):
        toks = term.split()
        if not toks:
            raise ParseError(f"empty term in {text!r}")
        if _is_rational_token(toks[0]):
            elem = gens.scalar(Fraction(toks[0]))
            toks = toks[1:]
        else:
            elem = gens.one()
        for tok in toks:
            base, caret, power = tok.rpartition("^")
            if caret and power.isdigit() and base in gens._even_index:
                elem = elem * gens.gen(base) ** int(power)
            elif tok in gens._even_index or tok in gens._odd_index:
                elem = elem * gens.gen(tok)
            else:
                raise ParseError(f"unknown factor {tok!r}")
        result = result + elem
    return result


# -- cotangent-bundle generator layout and connection data ---------------

def phase_generators(m, k):
    """Generators (q1..qm, p_1..p_m; a_1..a_k lower, a^1..a^k upper).

    Even indices 0..m-1 are base coordinates, m..2m-1 momenta; odd
    indices 0..k-1 are the lower generators, k..2k-1 the upper ones,
    dual in matching order.
    """
    even = [f"q{i + 1}" for i in range(m)] + [f"p_{i + 1}" for i in range(m)]
    odd = [f"a_{i + 1}" for i in range(k)] + [f"a^{i + 1}" for i in range(k)]
    dual = {}
    for i in range(k):
        dual[i] = k + i
        dual[k + i] = i
    return GeneratorSet(even, odd,
                        momentum=range(m, 2 * m),
                        odd_lower=range(k),
                        odd_upper=range(k, 2 * k),
                        odd_dual=dual)


class ConnectionData:
    """Christoffel symbols Gamma_{i alpha}^beta, polynomials in q only,
    plus the curvature they generate.

    `gamma` maps (i, alpha, beta) (all 0-based) to a SuperElement over
    the phase generator set; missing entries are zero.
    """

    def __init__(self, gens, m, k, gamma=None):
        self.gens = gens
        self.m = m
        self.k = k
        self.gamma = {}
        q_indices = set(range(m))
        for key, val in (gamma or {}).items():
            if val.is_zero():
                continue
            for (e, o) in val.terms:
                ok = not o and all(x == 0 for i, x in enumerate(e)
                                   if i not in q_indices)
                if not ok:
                    raise ValueError("Christoffel entries must be "
                                     "polynomials in the base coordinates")
            self.gamma[key] = val

    def christoffel(self, i, alpha, beta):
        return self.gamma.get((i, alpha, beta), self.gens.zero())

    def curvature(self, i, j, alpha, beta):
        """R^beta_{alpha i j}; antisymmetric in (i, j)."""
        qi = self.gens.even[i]
        qj = self.gens.even[j]
        val = (self.christoffel(j, alpha, beta).partial_even(qi)
               - self.christoffel(i, alpha, beta).partial_even(qj))
        for g in range(self.k):
            val = val + self.christoffel(i, g, beta) * self.christoffel(j, alpha, g)
            val = val - self.christoffel(j, g, beta) * self.christoffel(i, alpha, g)
        return val
