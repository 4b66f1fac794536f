"""Second code paths that `courant` replaced, kept as independent
oracles:

* the anchor_of_D loop of `verify_courant`, one full derived bracket per
  pair of functions;
* the axiom loop of `verify_courant`: every identity bracketed out
  explicitly, with the D/B/P/DB tables and six brackets per section
  triple, and the Jacobiator as [e1, [e2, e3]] - [[e1, e2], e3]
  - [e2, [e1, e3]] rather than read from the master residual;
* the invariance and defect loop that `brackets.derived_identity_failures`
  ran on every input, on tabulated partials, until it was dropped as a
  consequence of the Jacobi identity of the bracket;
* T_omega from its defining values on the frame, against
  `t_omega` = 1/6 [omega, omega, omega]_psi;
* the three table completions (pairs, totally antisymmetric triples,
  pairs with a free third index) that `_antisymmetric` replaced, each
  with its own range check.
"""

from itertools import combinations

from diracdeform.brackets import master_residuals
from diracdeform.courant import (
    ShapeError,
    _q_monomials,
    _section_family,
    build_theta,
)
from diracdeform.courant_theory import _psi_eval, anchor_apply, d_fun
from diracdeform.superalg import to_text


def verify_courant(inp, degree=1, section_limit=None):
    """The report of `courant.verify_courant`."""
    th = build_theta(inp)
    br = th.ctx.bracket
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

    # D_i = {e_i, Theta}, B_ij = [e_i, e_j] = {D_i, e_j},
    # P_ij = <e_i, e_j>, DB_ij = {B_ij, Theta}
    n = len(secs)
    D = [br(e, th.theta) for e in secs]
    B = [[br(D[i], e) for e in secs] for i in range(n)]
    P = [[br(e1, e2) for e2 in secs] for e1 in secs]
    DB = [[br(B[i][j], th.theta) for j in range(n)] for i in range(n)]
    fail_jac, fail_inv, fail_def = [], [], []
    for i1 in range(n):
        for i2, e2 in enumerate(secs):
            b12 = B[i1][i2]
            d = b12 + B[i2][i1] - br(th.theta, P[i1][i2])
            if not d.is_zero():
                fail_def.append((i1, i2, to_text(d)))
            for i3, e3 in enumerate(secs):
                jac = br(D[i1], B[i2][i3]) - br(DB[i1][i2], e3) \
                    - br(D[i2], B[i1][i3])
                if not jac.is_zero():
                    fail_jac.append((i1, i2, i3, to_text(jac)))
                inv = br(D[i1], P[i2][i3]) - br(b12, e3) \
                    - br(e2, B[i1][i3])
                if not inv.is_zero():
                    fail_inv.append((i1, i2, i3, to_text(inv)))
    record("jacobi", fail_jac)
    record("invariance", fail_inv)
    record("defect", fail_def)
    record("anchor_of_D", anchor_of_D_failures(th, funs))
    report["ok"] = report["ok"] and master_ok
    return report


def anchor_of_D_failures(th, funs):
    """The anchor_of_D loop of `courant.verify_courant` pair by pair:
    rho(D f) g = {{{Theta, f}, Theta}, g} with every bracket taken in
    full, so Theta is differentiated four times per pair (f, g)."""
    out = []
    for f in funs:
        for g in funs:
            d = anchor_apply(th, d_fun(th, f), g)
            if not d.is_zero():
                out.append((to_text(f), to_text(g), to_text(d)))
    return out


def invariance_defect_failures(ctx, theta, elements):
    """Where the derived bracket [a, b] = {{a, theta}, b} and the pairing
    <a, b> = {a, b} break, on the chi-degree-1 `elements` e_0, e_1, ...:

    * "invariance": [e1, <e2, e3>] - <[e1, e2], e3> - <e2, [e1, e3]>,
      with [e1, f] = {{e1, theta}, f} for a function f;
    * "defect": [e1, e2] + [e2, e1] - {theta, <e1, e2>}.

    Returns {name: [(*indices, value)]} over the nonzero values, indices
    in lexicographic order.  Every operand is differentiated once, and
    each bracket {x, y} is contract(dX, lY) on the tabulated partials.
    """
    rp, lp, contract = ctx.right_partials, ctx.left_partials, ctx.contract
    n = len(elements)
    dE, lE = [rp(e) for e in elements], [lp(e) for e in elements]
    l_theta = lp(theta)
    # D_i = {e_i, theta}, B_ij = [e_i, e_j] = {D_i, e_j}, P_ij = <e_i, e_j>
    dD = [rp(contract(dE[i], l_theta)) for i in range(n)]
    B = [[contract(dD[i], lE[j]) for j in range(n)] for i in range(n)]
    dB = [[rp(b) for b in row] for row in B]
    lB = [[lp(b) for b in row] for row in B]
    lP = [[lp(contract(dE[i], lE[j])) for j in range(n)] for i in range(n)]
    d_theta = rp(theta)
    inv, defect = [], []
    for i1 in range(n):
        for i2 in range(n):
            d = B[i1][i2] + B[i2][i1] - contract(d_theta, lP[i1][i2])
            if d.terms:
                defect.append((i1, i2, d))
            for i3 in range(n):
                v = contract(dD[i1], lP[i2][i3]) \
                    - contract(dB[i1][i2], lE[i3]) \
                    - contract(dE[i2], lB[i1][i3])
                if v.terms:
                    inv.append((i1, i2, i3, v))
    return {"invariance": inv, "defect": defect}


def _omega_apply(th, omega, a):
    """omega(a_a) as an upper-generated 1-form: {a_a, omega}."""
    return th.ctx.bracket(th.lower(a), omega)


def t_omega_direct(th, omega):
    """T_omega from its defining values.

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


def antisymmetrize_pairs(entries, k, path):
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


def antisymmetrize_triples(entries, k, path):
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


def pairs_third(raw, k, path):
    """Full table {(a, b, g): value} from entries antisymmetric in
    (a, b)."""
    grouped = {}
    for (a, b, g), v in raw.items():
        if not 0 <= g < k:
            raise ShapeError(path, f"index {g} out of range")
        grouped.setdefault(g, {})[(a, b)] = v
    return {(a, b, g): v for g, entries in grouped.items()
            for (a, b), v in antisymmetrize_pairs(entries, k, path).items()}
