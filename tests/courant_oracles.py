"""The axiom loop that `courant.verify_courant` replaced, kept as an
independent oracle: every identity bracketed out explicitly, with the
D/B/P/DB tables and six brackets per section triple, and the Jacobiator
as [e1, [e2, e3]] - [[e1, e2], e3] - [e2, [e1, e3]] rather than read
from the master residual."""

from diracdeform.brackets import master_residuals
from diracdeform.courant import (
    _q_monomials,
    _section_family,
    anchor_apply,
    build_theta,
    d_fun,
)
from diracdeform.superalg import to_text


def verify_courant(inp, degree=1, section_limit=None):
    """The report of `courant.verify_courant` (without raise_on_fail)."""
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
    fail_jac, fail_inv, fail_def, fail_rd = [], [], [], []
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
    for f in funs:
        for g in funs:
            d = anchor_apply(th, d_fun(th, f), g)
            if not d.is_zero():
                fail_rd.append((to_text(f), to_text(g), to_text(d)))
    record("jacobi", fail_jac)
    record("invariance", fail_inv)
    record("defect", fail_def)
    record("anchor_of_D", fail_rd)
    report["ok"] = report["ok"] and master_ok
    return report
