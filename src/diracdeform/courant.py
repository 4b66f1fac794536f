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
from itertools import combinations, combinations_with_replacement

from .brackets import (
    BracketContext,
    derived_bracket,
    derived_diff,
    derived_identity_failures,
    master_residuals,
)
from .jsonin import InputError, array, fields, natural
from .lie_deform import Differential, FormalSeries, mc_extend
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


def _antisymmetrize_pairs(entries, k, path):
    """Full table {(a, b): value} from entries antisymmetric in (a, b)."""
    table = {}
    for (a, b), v in entries.items():
        if not (0 <= a < k and 0 <= b < k):
            raise ShapeError(path, f"index ({a}, {b}) out of range")
        if a == b:
            if not v.is_zero():
                raise ShapeError(path, "diagonal entry must vanish")
            continue
        for key, val in (((a, b), v), ((b, a), -v)):
            if key in table and table[key] != val:
                raise ShapeError(path, "conflicting antisymmetric entries "
                                       f"{key}")
            table[key] = val
    return table


def _antisymmetrize_triples(entries, k, path):
    """Full table from entries totally antisymmetric in three indices."""

    def perms(t):
        a, b, c = t
        return [((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1)]

    table = {}
    for (a, b, c), v in entries.items():
        if not all(0 <= x < k for x in (a, b, c)):
            raise ShapeError(path, f"index ({a}, {b}, {c}) out of range")
        if len({a, b, c}) < 3:
            if not v.is_zero():
                raise ShapeError(path, "repeated-index entry must vanish")
            continue
        for key, s in perms((a, b, c)):
            val = s * v
            if key in table and table[key] != val:
                raise ShapeError(path, "conflicting antisymmetric entries "
                                       f"{key}")
            table[key] = val
    return table


def _pairs_third(raw, k, path):
    """Full table {(a, b, g): value} from entries antisymmetric in
    (a, b)."""
    grouped = {}
    for (a, b, g), v in raw.items():
        if not 0 <= g < k:
            raise ShapeError(path, f"index {g} out of range")
        grouped.setdefault(g, {})[(a, b)] = v
    return {(a, b, g): v for g, entries in grouped.items()
            for (a, b), v in _antisymmetrize_pairs(entries, k, path).items()}


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

    Values are polynomials in q1..qm, given as SuperElements over the
    phase generators, Fractions/ints, or text in the superalg grammar.
    Errors are ShapeErrors naming `path` (the JSON path of the input)
    and the count or table at fault.
    """

    def __init__(self, m, k, rho=None, rho_bar=None, c=None, c_bar=None,
                 psi=None, phi=None, gamma_conn=None, path="$"):
        self.m, self.k = _counts(m, k, path)
        self.gens = phase_generators(m, k)

        def coerce(name, table, complete=None):
            at = f"{path}.{name}"
            out = {}
            for key, v in (table or {}).items():
                v = _base_poly(self.gens, m, v, at)
                if not v.is_zero():
                    out[key] = v
            return complete(out, k, at) if complete else out

        self.rho = coerce("rho", rho)
        self.rho_bar = coerce("rho_bar", rho_bar)
        self.c = coerce("c", c, _pairs_third)
        self.c_bar = coerce("c_bar", c_bar, _pairs_third)
        self.psi = coerce("psi", psi, _antisymmetrize_triples)
        self.phi = coerce("phi", phi, _antisymmetrize_triples)
        self.gamma_conn = coerce("gamma_conn", gamma_conn)
        for (i, a) in list(self.rho) + list(self.rho_bar):
            if not (0 <= i < m and 0 <= a < k):
                raise ShapeError(path, f"anchor index ({i}, {a}) out of range")
        for (i, a, b) in self.gamma_conn:
            if not (0 <= i < m and 0 <= a < k and 0 <= b < k):
                raise ShapeError(path, "connection index out of range")

    # -- JSON -----------------------------------------------------------

    def to_json(self):
        def rows(table, n=0):
            """[*key, value] rows in key order, one per antisymmetry
            class: the key whose first n indices increase."""
            return [[*key, to_text(v)] for key, v in sorted(table.items())
                    if list(key[:n]) == sorted(key[:n])]

        return {
            "m": self.m, "k": self.k,
            "rho": rows(self.rho), "rho_bar": rows(self.rho_bar),
            "c": rows(self.c, 2), "c_bar": rows(self.c_bar, 2),
            "psi": rows(self.psi, 3), "phi": rows(self.phi, 3),
            "gamma_conn": rows(self.gamma_conn),
        }

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

    Both displayed forms of the quadratic-plus-cubic parts (the
    torsion/momentum form and the Darboux-momentum form) are computed
    and must agree; a mismatch raises ShapeError.  The upper component
    gamma is the lower one mu with the summands exchanged: anchor and
    constants (rho_bar, c_bar), the roles of a_* and a^*, and the dual
    connection Gamma*(i, a, b) = -Gamma(i, b, a).
    """
    m, k = inp.m, inp.k
    gens = inp.gens
    conn = ConnectionData(gens, m, k, gamma=inp.gamma_conn or None)
    ctx = BracketContext.rothstein_on(conn)
    r = ctx.darboux_momenta()
    alow = [gens.gen(gens.odd[a]) for a in range(k)]
    aup = [gens.gen(gens.odd[k + a]) for a in range(k)]
    p = [gens.gen(gens.even[m + i]) for i in range(m)]
    half = Fraction(1, 2)
    zero = gens.zero()

    def charge_half(rho, c, hi, lo, gam, name):
        """-r_i rho_ia hi_a - 1/2 c_abg hi_a hi_b lo_g (Darboux form),
        checked against -p_i rho_ia hi_a + 1/2 T_abg hi_a hi_b lo_g with
        torsion T_abg = rho_ia gam(i, b, g) - rho_ib gam(i, a, g) - c_abg."""
        out = zero
        for (i, a), rv in rho.items():
            out = out - r[i] * rv * hi[a]
        for (a, b, g), cv in c.items():
            out = out - half * cv * hi[a] * hi[b] * lo[g]
        alt = zero
        for (i, a), rv in rho.items():
            alt = alt - p[i] * rv * hi[a]
        for a in range(k):
            for b in range(k):
                for g in range(k):
                    t = zero
                    for i in range(m):
                        ra = rho.get((i, a), zero)
                        rb = rho.get((i, b), zero)
                        t = t + ra * gam(i, b, g) - rb * gam(i, a, g)
                    t = t - c.get((a, b, g), zero)
                    if not t.is_zero():
                        alt = alt + half * t * hi[a] * hi[b] * lo[g]
        if out != alt:
            raise ShapeError("$", f"the two defining forms of the {name} "
                                  "charge component disagree")
        return out

    def cubic(table, gen):
        out = zero
        for (a, b, g) in combinations(range(k), 3):
            v = table.get((a, b, g))
            if v is not None and not v.is_zero():
                out = out + v * gen[a] * gen[b] * gen[g]
        return out

    mu = charge_half(inp.rho, inp.c, aup, alow, conn.christoffel, "lower")
    gamma_el = charge_half(inp.rho_bar, inp.c_bar, alow, aup,
                           lambda i, a, b: -conn.christoffel(i, b, a),
                           "upper")
    return ThetaStructure(inp, ctx, mu, gamma_el, cubic(inp.psi, alow),
                          cubic(inp.phi, aup))


# ---------------------------------------------------------------------------
# Derived operations
# ---------------------------------------------------------------------------

def courant_bracket(th, e1, e2):
    """[e1, e2] = {{e1, Theta}, e2}."""
    return derived_bracket(th.ctx, th.theta, e1, e2)


def pairing(th, e1, e2):
    """<e1, e2> for chi-degree-1 elements, as a base function."""
    return th.ctx.bracket(e1, e2)


def anchor_apply(th, e, f):
    """rho(e) f = {{e, Theta}, f}."""
    return derived_bracket(th.ctx, th.theta, e, f)


def d_fun(th, f):
    """The derivation-like element D f = {Theta, f}."""
    return derived_diff(th.ctx, th.theta, f)


def d_L(th, alpha):
    """d_L alpha = {mu, alpha} on upper-generated forms."""
    return th.ctx.bracket(th.mu, alpha)


def dual_bracket(th, alpha, beta):
    """[alpha, beta]_* = {{alpha, gamma}, beta} on upper-generated
    forms, extended to all degrees by the bracket itself."""
    return th.ctx.bracket(th.ctx.bracket(alpha, th.gamma), beta)


def psi_triple(th, a, b, c):
    """[a, b, c]_psi = {{{psi, a}, b}, c}."""
    br = th.ctx.bracket
    return br(br(br(th.psi, a), b), c)


def t_omega(th, omega):
    """T_omega = 1/6 [omega, omega, omega]_psi."""
    return Fraction(1, 6) * psi_triple(th, omega, omega, omega)


def _omega_apply(th, omega, a):
    """omega(a_a) as an upper-generated 1-form: {a_a, omega}."""
    return th.ctx.bracket(th.lower(a), omega)


def _psi_eval(th, al1, al2, al3):
    """psi(al1, al2, al3) by nested insertion of upper 1-forms."""
    br = th.ctx.bracket
    return br(al3, br(al2, br(al1, th.psi)))


def t_omega_direct(th, omega):
    """T_omega from its defining values: the second code path.

    T(s1, s2, s3) = -psi(omega(s1), omega(s2), omega(s3)) on the frame,
    reassembled as an upper-generated 3-form.
    """
    k = th.input.k
    out = th.zero()
    oms = [_omega_apply(th, omega, a) for a in range(k)]
    for (a, b, c) in combinations(range(k), 3):
        v = -_psi_eval(th, oms[a], oms[b], oms[c])
        if not v.is_zero():
            out = out + v * th.upper(a) * th.upper(b) * th.upper(c)
    return out


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


def mc_residual_dirac(th, omega_series):
    """Per-order residuals {mu, w} + 1/2 {{w, gamma}, w}
    + 1/6 {{{psi, w}, w}, w} as a FormalSeries of 3-forms."""
    if not omega_series[0].is_zero():
        raise ShapeError("omega_series", "must start at order one")
    coeffs = [omega_series[i] for i in range(omega_series.order + 1)]
    out = [mc_residual_one(th, coeffs, n)
           for n in range(omega_series.order + 1)]
    return FormalSeries(omega_series.order, out, th.zero())


def d_omega_operator(th, omega):
    """d_omega = d_L + [omega, .]_* + 1/2 [omega, omega, .]_psi."""
    br = th.ctx.bracket
    half = Fraction(1, 2)
    wg = br(omega, th.gamma)
    pww = br(br(th.psi, omega), omega)

    def op(alpha):
        return br(th.mu, alpha) + br(wg, alpha) + half * br(pww, alpha)

    return op

def universal_identity_check(th, omega):
    """d_omega applied to the deformation expression vanishes for every
    2-form omega, solution or not.  Returns the residual."""
    mc = mc_residual_one(th, [th.zero(), omega], 1) \
        + mc_residual_one(th, [th.zero(), omega], 2) \
        + mc_residual_one(th, [th.zero(), omega], 3)
    return d_omega_operator(th, omega)(mc)


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


def verify_courant(inp, degree=1, section_limit=None, raise_on_fail=False):
    """Check the master equation and the derived-bracket axioms.

    Axioms are verified symbolically on frame sections times
    q-monomials of degree <= degree (Leibniz rules make this
    generating).  Returns a report dict; with raise_on_fail=True a
    violation raises AxiomViolation naming the identity.
    """
    th = build_theta(inp)
    report = {"ok": True, "identities": {}}
    res = master_residuals(th.ctx, th.theta)
    master_ok = res["total"].is_zero()
    report["identities"]["master"] = {
        "ok": master_ok,
        "residual": to_text(res["total"]),
        "components": {f"{kk}": to_text(v)
                       for kk, v in res["components"].items()
                       if not v.is_zero()},
    }

    secs = _section_family(th, degree)
    if section_limit is not None:
        secs = secs[:section_limit]
    funs = _q_monomials(th.gens, th.input.m, degree)[:1 + th.input.m]

    def record(name, failures):
        ok = not failures
        report["identities"][name] = {"ok": ok, "failures": failures[:3]}
        if not ok:
            report["ok"] = False

    failures = derived_identity_failures(th.ctx, th.theta, res["total"],
                                         secs)
    fail_rd = []
    for f in funs:
        for g in funs:
            d = anchor_apply(th, d_fun(th, f), g)
            if not d.is_zero():
                fail_rd.append((to_text(f), to_text(g), to_text(d)))
    for name in ("jacobi", "invariance", "defect"):
        record(name, [(*key, to_text(x)) for *key, x in failures[name][:3]])
    record("anchor_of_D", fail_rd)
    report["ok"] = report["ok"] and master_ok
    if raise_on_fail and not report["ok"]:
        bad = [n for n, v in report["identities"].items() if not v["ok"]]
        raise AxiomViolation(", ".join(bad))
    return report


def quasi_lemma_check(inp, raise_on_fail=False):
    """The three structure identities of the split charge, verified on
    frame 1-forms (upper generators), with one q-weighted variant."""
    th = build_theta(inp)
    br = th.ctx.bracket
    k = th.input.k
    gens = th.gens
    report = {"ok": True, "identities": {}}

    forms = [th.upper(a) for a in range(k)]
    if th.input.m > 0:
        forms.append(gens.gen(gens.even[0]) * th.upper(0))
    funs = _q_monomials(gens, th.input.m, 1)

    def pr_lower(x):
        """Lower (first-summand) component of a chi-degree-1 element."""
        out = gens.zero()
        for key, cval in x.terms.items():
            e, o = key
            if len(o) == 1 and o[0] < k:
                out = out + type(x)(gens, {key: cval})
        return out

    def psi_map(a, b):
        return -pr_lower(courant_bracket(th, a, b))

    fail1 = []
    for a in forms:
        for b in forms:
            pab = psi_map(a, b)
            dstar = dual_bracket(th, a, b)
            for f in funs:
                lhs = anchor_apply(th, pab, f)
                rhs = anchor_apply(th, dstar, f) \
                    - (anchor_apply(th, a, anchor_apply(th, b, f))
                       - anchor_apply(th, b, anchor_apply(th, a, f)))
                d = lhs - rhs
                if not d.is_zero():
                    fail1.append(to_text(d))

    fail2 = []
    for a in forms:
        for b in forms:
            for c in forms:
                lhs = dual_bracket(th, dual_bracket(th, a, b), c) \
                    + dual_bracket(th, dual_bracket(th, b, c), a) \
                    + dual_bracket(th, dual_bracket(th, c, a), b)
                rhs = br(psi_map(a, b), d_L(th, c)) \
                    + br(psi_map(b, c), d_L(th, a)) \
                    + br(psi_map(c, a), d_L(th, b)) \
                    + d_L(th, _psi_eval(th, a, b, c))
                d = lhs - rhs
                if not d.is_zero():
                    fail2.append(to_text(d))

    fail3 = []
    for a in forms:
        for b in forms:
            for c in forms:
                for e in forms:
                    lhs = anchor_apply(th, a, _psi_eval(th, b, c, e)) \
                        - anchor_apply(th, b, _psi_eval(th, a, c, e)) \
                        + anchor_apply(th, c, _psi_eval(th, a, b, e)) \
                        - anchor_apply(th, e, _psi_eval(th, a, b, c))
                    lhs = lhs \
                        - _psi_eval(th, dual_bracket(th, a, b), c, e) \
                        + _psi_eval(th, dual_bracket(th, a, c), b, e) \
                        - _psi_eval(th, dual_bracket(th, a, e), b, c) \
                        - _psi_eval(th, dual_bracket(th, b, c), a, e) \
                        + _psi_eval(th, dual_bracket(th, b, e), a, c) \
                        - _psi_eval(th, dual_bracket(th, c, e), a, b)
                    if not lhs.is_zero():
                        fail3.append(to_text(lhs))

    for name, failures in (("anchor_defect", fail1),
                           ("jacobiator", fail2),
                           ("psi_coherence", fail3)):
        report["identities"][name] = {"ok": not failures,
                                      "failures": failures[:3]}
        if failures:
            report["ok"] = False
    if raise_on_fail and not report["ok"]:
        bad = [n for n, v in report["identities"].items() if not v["ok"]]
        raise AxiomViolation(", ".join(bad))
    return report


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
    Returns (coefficients, certificates); stops at the first
    non-extendable order.
    """
    th = inp_or_theta if isinstance(inp_or_theta, ThetaStructure) \
        else build_theta(inp_or_theta)
    op = partial(d_L, th)
    basis = _two_form_basis(th, degree_cap)
    d = Differential(op, basis, th.zero(), spans=th.input.m == 0,
                     images=[op(b).terms for b in basis])
    coeffs, certs = mc_extend(
        d, lambda coeffs, n: -mc_residual_one(th, coeffs, n),
        [th.zero()] + list(prefix), order, AxiomViolation)
    return coeffs[1:], certs


def deform_extend_dirac(inp_or_theta, prefix, degree_cap=2):
    """The certificate of order len(prefix) + 1 (see deform_series_dirac)."""
    return deform_series_dirac(inp_or_theta, prefix, len(prefix) + 1,
                               degree_cap=degree_cap)[1][-1]


# ---------------------------------------------------------------------------
# Change of isotropic complement
# ---------------------------------------------------------------------------

def _to_matrix(th, x, upper, name, kind):
    """k x k antisymmetric coefficient matrix of x, which must be `kind`:
    a 2-form in the upper (upper=True) or the lower odd generators."""
    k = th.input.k
    gens = th.gens
    off = k if upper else 0
    M = [[gens.zero() for _ in range(k)] for _ in range(k)]
    for (e, o), cval in x.terms.items():
        if len(o) != 2 or any((i >= k) != upper for i in o):
            raise ShapeError(name, f"not {kind}")
        a, b = o[0] - off, o[1] - off
        coef = type(x)(gens, {(e, ()): cval})
        M[a][b] = M[a][b] + coef
        M[b][a] = M[b][a] - coef
    return M


def _form_to_matrix(th, omega):
    return _to_matrix(th, omega, True, "omega", "an upper-generated 2-form")


def _matrix_to_form(th, M):
    k = th.input.k
    out = th.zero()
    for a in range(k):
        for b in range(a + 1, k):
            if not (M[a][b] + M[b][a]).is_zero():
                raise ShapeError("M", "matrix is not antisymmetric")
            out = out + M[a][b] * th.upper(a) * th.upper(b)
    return out


def _bivector_to_matrix(th, lam):
    return _to_matrix(th, lam, False, "lam", "a lower-generated bivector")


def _mat_mul_se(A, B, zero):
    k = len(A)
    return [[sum((A[i][j] * B[j][l] for j in range(k)), zero)
             for l in range(k)] for i in range(k)]


def reparametrize_complement(th, lam, omega_series):
    """omega'_t = omega_t (id + Lambda omega_t)^{-1} under the change
    of isotropic complement by the bivector Lambda."""
    if not omega_series[0].is_zero():
        raise ShapeError("omega_series", "must start at order one")
    k = th.input.k
    zero = th.gens.zero()
    N = omega_series.order
    W = [_form_to_matrix(th, omega_series[i]) for i in range(N + 1)]
    L = _bivector_to_matrix(th, lam)
    ident = [[th.gens.one() if i == j else zero for j in range(k)]
             for i in range(k)]
    # X_t = (id + Lambda omega_t)^{-1}: X_0 = id,
    # X_n = -sum_{i>=1} Lambda omega_i X_{n-i}
    X = [ident]
    for n in range(1, N + 1):
        acc = [[zero for _ in range(k)] for _ in range(k)]
        for i in range(1, n + 1):
            t = _mat_mul_se(L, _mat_mul_se(W[i], X[n - i], zero), zero)
            for a in range(k):
                for b in range(k):
                    acc[a][b] = acc[a][b] - t[a][b]
        X.append(acc)
    out = []
    for n in range(N + 1):
        acc = [[zero for _ in range(k)] for _ in range(k)]
        for i in range(n + 1):
            t = _mat_mul_se(W[i], X[n - i], zero)
            for a in range(k):
                for b in range(k):
                    acc[a][b] = acc[a][b] + t[a][b]
        out.append(_matrix_to_form(th, acc))
    return FormalSeries(N, out, zero)


# ---------------------------------------------------------------------------
# Stock inputs
# ---------------------------------------------------------------------------

def standard_courant(m):
    """The standard structure on the tangent-plus-cotangent model of an
    m-dimensional affine base: identity anchor on the lower summand,
    everything else zero."""
    return CourantInput(m, m, rho={(i, i): 1 for i in range(m)})


def quadratic_lie_algebra(c_table, k):
    """A quadratic Lie algebra presented on a split half-rank frame:
    base dimension zero, lower structure constants only."""
    return CourantInput(0, k, c=c_table)


def lie_bialgebra(c_table, c_bar_table, k):
    """A Lie bialgebra double: both sets of constants, no psi."""
    return CourantInput(0, k, c=c_table, c_bar=c_bar_table)


def so3_double():
    """Diagonal/antidiagonal split of the product of two copies of
    so(3): the lower frame carries the so(3) constants, the cubic term
    records the failure of the complement to close."""
    c = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}
    psi = {(0, 1, 2): Fraction(-1, 4)}
    return CourantInput(0, 3, c=c, psi=psi)
