"""Courant algebroids on split bundles via a square-zero charge.

The even super-Poisson bracket from `brackets` carries everything: the
charge Theta = phi + mu + gamma + psi encodes anchor and structure
functions, its master equation {Theta, Theta} = 0 encodes the axioms,
and the graph deformation equation is expressed through derived
brackets.  Its order-by-order solve is `lie_deform.mc_extend`, the loop
shared with the Lie and linear-Poisson engines, over d = d_L on a
q-polynomial basis of 2-forms; each order yields one
`lie_deform.ObstructionCertificate`.

Conventions.  Base coordinates q1..qm, frame sections of the two
half-rank summands written as the lower odd generators a_1..a_k and the
upper ones a^1..a^k (see superalg.phase_generators).  All structure
functions are polynomials in the q's; all indices in dictionaries and
JSON are 0-based.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations

from .brackets import (
    BracketContext,
    derived_bracket,
    derived_diff,
    derived_identity_failures,
    master_residuals,
)
from .jsonin import InputError, array, fields, natural
from .lie_deform import Differential, mc_extend
from .superalg import (
    ConnectionData,
    parse,
    phase_generators,
    to_text,
)


class ShapeError(InputError):
    pass


class AxiomViolation(Exception):
    pass


def _antisymmetric(table, n, path):
    """The full table of entries antisymmetric in their first n indices:
    each key with those indices permuted, its value times the sign of the
    permutation.  An entry whose first n indices repeat must vanish."""
    perms = [(p, (-1) ** sum(x > y for x, y in combinations(p, 2)))
             for p in permutations(range(n))]
    out = {}
    for key, v in table.items():
        if len(set(key[:n])) < n:
            if not v.is_zero():
                raise ShapeError(path, ("diagonal" if n == 2 else
                                        "repeated-index")
                                 + " entry must vanish")
            continue
        for p, sign in perms:
            pkey = tuple(key[i] for i in p) + key[n:]
            val = sign * v
            if pkey in out and out[pkey] != val:
                raise ShapeError(path, "conflicting antisymmetric entries "
                                       f"{pkey[:n]}")
            out[pkey] = val
    return out


def _counts(m, k, path):
    """m and k, which must be non-negative ints."""
    for name, v in (("m", m), ("k", k)):
        if type(v) is not int or v < 0:
            raise ShapeError(f"{path}.{name}", "must be a non-negative "
                                               f"integer, got {v!r}")
    return m, k


def parse_text(gens, v, path):
    """parse(gens, v) for v a string; errors are ShapeErrors naming path."""
    if type(v) is not str:
        raise ShapeError(path, f"expected a string, got {v!r}")
    try:
        return parse(gens, v)
    except (ValueError, ZeroDivisionError) as e:
        raise ShapeError(path, str(e))


def _base_poly(gens, m, v, path):
    """v (text in the superalg grammar, a rational or a SuperElement over
    generators equal to gens) as a polynomial over gens in the base
    coordinates q1..qm."""
    v = parse_text(gens, v, path) if isinstance(v, str) else gens.zero() + v
    if any(o or any(e[m:]) for (e, o) in v.terms):
        raise ShapeError(path, "structure functions must be polynomials "
                               "in the base coordinates")
    return v


# JSON rows of each table: the bound ("m" or "k") of each index, then
# the value
_ROWS = {"rho": "mk", "rho_bar": "mk", "c": "kkk", "c_bar": "kkk",
         "psi": "kkk", "phi": "kkk", "gamma_conn": "mkk"}
# the tables antisymmetric in their first n indices, by n
_ANTISYMMETRIC = {"c": 2, "c_bar": 2, "psi": 3, "phi": 3}


class CourantInput:
    """Structure data for a split bundle of base dimension m, rank k + k.

    rho[(i, alpha)]      anchor coefficient of the lower frame section
                         a_alpha on d/dq^i (polynomial in q),
    rho_bar[(i, alpha)]  same for the upper frame section a^alpha,
    c[(a, b, g)]         lower structure functions, antisymmetric in
                         (a, b),
    c_bar[(a, b, g)]     upper structure functions, antisymmetric in
                         (a, b),
    psi[(a, b, g)]       totally antisymmetric cubic lower term,
    phi[(a, b, g)]       totally antisymmetric cubic upper term,
    gamma_conn[(i, a, b)] connection coefficients on the lower summand.

    Each key is a tuple of ints, each below its bound in _ROWS.  Values
    are polynomials in q1..qm, given as SuperElements over the phase
    generators, Fractions/ints, or text in the superalg grammar.  Errors
    are ShapeErrors naming `path` (the JSON path of the input) and the
    count or table at fault.
    """

    def __init__(self, m, k, rho=None, rho_bar=None, c=None, c_bar=None,
                 psi=None, phi=None, gamma_conn=None, path="$"):
        self.m, self.k = _counts(m, k, path)
        self.gens = phase_generators(m, k)
        bound = {"m": m, "k": k}
        given = {"rho": rho, "rho_bar": rho_bar, "c": c, "c_bar": c_bar,
                 "psi": psi, "phi": phi, "gamma_conn": gamma_conn}
        for name, kinds in _ROWS.items():
            at = f"{path}.{name}"
            table = {}
            for key, v in (given[name] or {}).items():
                if type(key) is not tuple or len(key) != len(kinds) \
                        or not all(type(x) is int and 0 <= x < bound[b]
                                   for x, b in zip(key, kinds)):
                    raise ShapeError(at, f"index {key!r} is not "
                                         f"{len(kinds)} integers below "
                                         f"{tuple(bound[b] for b in kinds)}")
                v = _base_poly(self.gens, m, v, at)
                if not v.is_zero():
                    table[key] = v
            if name in _ANTISYMMETRIC:
                table = _antisymmetric(table, _ANTISYMMETRIC[name], at)
            setattr(self, name, table)

    # -- JSON -----------------------------------------------------------

    def to_json(self):
        def rows(name):
            """[*key, value] rows in key order, one per antisymmetry
            class: the key whose antisymmetric indices increase."""
            n = _ANTISYMMETRIC.get(name, 0)
            return [[*key, to_text(v)]
                    for key, v in sorted(getattr(self, name).items())
                    if list(key[:n]) == sorted(key[:n])]

        return {"m": self.m, "k": self.k, **{name: rows(name)
                                             for name in _ROWS}}

    @classmethod
    def from_json(cls, obj, path="$"):
        """Inverse of to_json for the document at JSON path `path`.  An
        InputError names the path of a bad value; a row that repeats an
        index tuple replaces the earlier one."""
        fields(obj, path, ("m", "k"), _ROWS)
        m, k = _counts(obj["m"], obj["k"], path)
        gens = phase_generators(m, k)
        bound = {"m": m, "k": k}
        tables = {}
        for name, kinds in _ROWS.items():
            table = tables[name] = {}
            at = f"{path}.{name}"
            for r, row in enumerate(array(obj.get(name, []), at)):
                *idx, v = array(row, f"{at}[{r}]", len(kinds) + 1)
                key = tuple(natural(x, f"{at}[{r}][{j}]", below=bound[b])
                            for j, (x, b) in enumerate(zip(idx, kinds)))
                vpath = f"{at}[{r}][{len(kinds)}]"
                if type(v) not in (str, int):
                    raise InputError(vpath, "expected a string or an "
                                            f"integer, got {v!r}")
                table[key] = _base_poly(gens, m, v, vpath)
        return cls(m, k, path=path, **tables)


class ThetaStructure:
    """The charge Theta = phi + mu + gamma + psi over a CourantInput."""

    def __init__(self, inp, ctx, mu, gamma_el, psi_el, phi_el):
        self.input = inp
        self.ctx = ctx
        self.gens = ctx.gens
        self.mu = mu
        self.gamma = gamma_el
        self.psi = psi_el
        self.phi = phi_el
        self.theta = mu + gamma_el + psi_el + phi_el

    def lower(self, a):
        return self.gens.gen(self.gens.odd[a])

    def upper(self, a):
        return self.gens.gen(self.gens.odd[self.input.k + a])

    def zero(self):
        return self.gens.zero()


def build_theta(inp):
    """Assemble Theta from the structure data.

    Each half is written in the Darboux momenta
    r_i = p_i - Gamma_{i alpha}^beta a^alpha a_beta.  The upper
    component gamma is the lower one mu with the summands exchanged:
    anchor and constants (rho_bar, c_bar) and the roles of a_* and a^*.
    Expanding r_i gives the torsion form of each half, with the dual
    connection Gamma*(i, a, b) = -Gamma(i, b, a) in gamma.
    """
    m, k = inp.m, inp.k
    gens = inp.gens
    conn = ConnectionData(gens, m, k, gamma=inp.gamma_conn or None)
    ctx = BracketContext.rothstein_on(conn)
    r = ctx.darboux_momenta()
    alow = [gens.gen(gens.odd[a]) for a in range(k)]
    aup = [gens.gen(gens.odd[k + a]) for a in range(k)]
    half = Fraction(1, 2)
    zero = gens.zero()

    def charge_half(rho, c, hi, lo):
        """-r_i rho_ia hi_a - 1/2 c_abg hi_a hi_b lo_g."""
        out = zero
        for (i, a), rv in rho.items():
            out = out - r[i] * rv * hi[a]
        for (a, b, g), cv in c.items():
            out = out - half * cv * hi[a] * hi[b] * lo[g]
        return out

    def cubic(table, gen):
        out = zero
        for (a, b, g) in combinations(range(k), 3):
            v = table.get((a, b, g))
            if v is not None and not v.is_zero():
                out = out + v * gen[a] * gen[b] * gen[g]
        return out

    return ThetaStructure(inp, ctx, charge_half(inp.rho, inp.c, aup, alow),
                          charge_half(inp.rho_bar, inp.c_bar, alow, aup),
                          cubic(inp.psi, alow), cubic(inp.phi, aup))


# ---------------------------------------------------------------------------
# Derived operations
# ---------------------------------------------------------------------------

def anchor_apply(th, e, f):
    """rho(e) f = {{e, Theta}, f}."""
    return derived_bracket(th.ctx, th.theta, e, f)


def d_fun(th, f):
    """The derivation-like element D f = {Theta, f}."""
    return derived_diff(th.ctx, th.theta, f)


def d_L(th, alpha):
    """d_L alpha = {mu, alpha} on upper-generated forms."""
    return th.ctx.bracket(th.mu, alpha)


def psi_triple(th, a, b, c):
    """[a, b, c]_psi = {{{psi, a}, b}, c}."""
    br = th.ctx.bracket
    return br(br(br(th.psi, a), b), c)


def mc_residual_one(th, omega_list, n):
    """Order-n residual of the graph deformation equation for the
    series with coefficients omega_list (index = order, omega_0 = 0)."""
    br = th.ctx.bracket
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)

    def om(i):
        return omega_list[i] if 0 <= i < len(omega_list) else th.zero()

    res = br(th.mu, om(n))
    for i in range(1, n):
        res = res + half * br(br(om(i), th.gamma), om(n - i))
    for i in range(1, n - 1):
        for j in range(1, n - i):
            kk = n - i - j
            if kk >= 1:
                res = res + sixth * psi_triple(th, om(i), om(j), om(kk))
    return res


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

def _q_monomials(gens, m, degree):
    """All q-monomials of total degree <= degree, each once: by degree,
    then in lexicographic order of their sorted index words."""
    out = []
    for d in range(degree + 1):
        for word in combinations_with_replacement(range(m), d):
            f = gens.one()
            for i in word:
                f = f * gens.gen(gens.even[i])
            out.append(f)
    return out


def _section_family(th, degree):
    """Frame sections times q-monomials up to the given degree."""
    k = th.input.k
    frames = [th.lower(a) for a in range(k)] + \
             [th.upper(a) for a in range(k)]
    out = []
    for f in _q_monomials(th.gens, th.input.m, degree):
        for fr in frames:
            out.append(f * fr)
    return out


def _report(identities, failures, raise_on_fail):
    """{"ok", "identities"}: the entries of `identities`, then one entry
    per failure list of `failures` with its first three failures.  With
    raise_on_fail, a failed identity raises AxiomViolation naming each
    failed one."""
    identities = {**identities, **{
        name: {"ok": not fails, "failures": fails[:3]}
        for name, fails in failures.items()}}
    bad = [name for name, v in identities.items() if not v["ok"]]
    if raise_on_fail and bad:
        raise AxiomViolation(", ".join(bad))
    return {"ok": not bad, "identities": identities}


def verify_courant(inp, degree=1, section_limit=None, raise_on_fail=False):
    """Check the master equation and the derived-bracket axioms.

    Axioms are verified symbolically on frame sections times
    q-monomials of degree <= degree (Leibniz rules make this
    generating); the Jacobiators are read from R = {Theta, Theta}
    (brackets.derived_identity_failures).  Returns a report dict; with
    raise_on_fail=True a violation raises AxiomViolation naming the
    identity.
    """
    th = build_theta(inp)
    res = master_residuals(th.ctx, th.theta)
    master = {
        "ok": res["total"].is_zero(),
        "residual": to_text(res["total"]),
        "components": {f"{kk}": to_text(v)
                       for kk, v in res["components"].items()
                       if not v.is_zero()},
    }

    secs = _section_family(th, degree)
    if section_limit is not None:
        secs = secs[:section_limit]
    funs = _q_monomials(th.gens, th.input.m, degree)[:1 + th.input.m]

    derived = derived_identity_failures(th.ctx, res["total"], secs)
    failures = {name: [(*key, to_text(x)) for *key, x in derived[name][:3]]
                for name in ("jacobi", "invariance", "defect")}
    failures["anchor_of_D"] = fail_rd = []
    for f in funs:
        for g in funs:
            d = anchor_apply(th, d_fun(th, f), g)
            if not d.is_zero():
                fail_rd.append((to_text(f), to_text(g), to_text(d)))
    return _report({"master": master}, failures, raise_on_fail)


# ---------------------------------------------------------------------------
# Graph deformation: order-by-order solver
# ---------------------------------------------------------------------------

def _two_form_basis(th, degree_cap):
    """Basis 2-forms q^e a^alpha a^beta with |e| <= degree_cap."""
    k = th.input.k
    out = []
    for f in _q_monomials(th.gens, th.input.m, degree_cap):
        for (a, b) in combinations(range(k), 2):
            out.append(f * th.upper(a) * th.upper(b))
    return out


def deform_series_dirac(inp_or_theta, prefix, order, degree_cap=2):
    """Extend a deformation prefix order by order up to `order`.

    prefix = [omega_1, ..., omega_N] (2-forms, order = position + 1) must
    satisfy the deformation equation through order N; PreconditionMC is
    raised otherwise.  Order n solves d_L omega_n = R_n, with
    R_n = -mc_residual_one(th, [0, omega_1, ..., omega_{n-1}], n), over
    q-polynomial 2-forms of degree <= degree_cap: the basis spans every
    2-form, and a failed solve certifies an obstruction, only when m = 0.
    A prefix entry outside the span of those 2-forms (any degree) raises
    a ShapeError naming its path $.prefix[i] in a deform-dirac input.
    Returns (coefficients, certificates); stops at the first
    non-extendable order.
    """
    th = inp_or_theta if isinstance(inp_or_theta, ThetaStructure) \
        else build_theta(inp_or_theta)
    m, k = th.input.m, th.input.k
    for i, w in enumerate(prefix):
        if any(len(o) != 2 or o[0] < k or any(e[m:]) for e, o in w.terms):
            raise ShapeError(f"$.prefix[{i}]", "not a 2-form q^e a^alpha "
                             "a^beta in the upper generators")
    d = Differential(partial(d_L, th),
                     partial(_two_form_basis, th, degree_cap), th.zero(),
                     spans=m == 0)
    coeffs, certs = mc_extend(
        d, lambda coeffs, n: -mc_residual_one(th, coeffs, n),
        [th.zero()] + list(prefix), order, AxiomViolation)
    return coeffs[1:], certs
