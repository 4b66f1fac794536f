"""The bracket bodies that `BracketContext.bracket` replaced, kept as
independent oracles: the five-term Rothstein bracket built on the
covariant derivative `nabla`, and the Schouten bracket assembled from
odd-homogeneous components.  Also the per-pair bodies that now share
each operand's partials, with every bracket taken in full:
`master_residuals` and `darboux_residuals`."""

from fractions import Fraction

from diracdeform.superalg import SuperElement, bidegree_components


def split_odd(a):
    """Decompose into odd-homogeneous components {degree: element}."""
    comps = {}
    for (e, o), c in a.terms.items():
        comps.setdefault(len(o), {})[(e, o)] = c
    return {d: SuperElement(a.gens, t) for d, t in comps.items()}


def _schouten_half(ctx, P, Q):
    gens = ctx.gens
    out = gens.zero()
    for ci, oi in ctx.conjugate.items():
        dP = P.partial_odd(gens.odd[oi], "right")
        if dP.is_zero():
            continue
        dQ = Q.partial_even(gens.even[ci])
        if dQ.is_zero():
            continue
        out = out + dP * dQ
    return out


def schouten(ctx, P, Q):
    """Odd Poisson bracket of a SCHOUTEN context: on odd degrees p, q,
    [P,Q] = P<-d_c d_c Q - (-1)^{(p-1)(q-1)} Q<-d_c d_c P."""
    out = ctx.gens.zero()
    for p, Pp in split_odd(P).items():
        for q, Qq in split_odd(Q).items():
            sign = (-1) ** ((p - 1) * (q - 1) % 2)
            out = (out + _schouten_half(ctx, Pp, Qq)
                   - sign * _schouten_half(ctx, Qq, Pp))
    return out


def nabla(ctx, i, phi):
    """Covariant q^i-derivative: rotates lower odd generators by +Gamma
    and upper ones by -Gamma^T."""
    gens, k = ctx.gens, ctx.k
    out = phi.partial_even(gens.even[i])
    conn = ctx.connection
    if conn is None:
        return out
    for alpha in range(k):
        dlo = phi.partial_odd(gens.odd[alpha], "left")
        dup = phi.partial_odd(gens.odd[k + alpha], "left")
        for beta in range(k):
            gam = conn.christoffel(i, alpha, beta)
            if not gam.is_zero() and not dlo.is_zero():
                out = out + gam * gens.gen(gens.odd[beta]) * dlo
            gam2 = conn.christoffel(i, beta, alpha)
            if not gam2.is_zero() and not dup.is_zero():
                out = out - gam2 * gens.gen(gens.odd[k + beta]) * dup
    return out


def rothstein(ctx, phi, psi):
    """Five-term even super-Poisson bracket {phi, psi} of a ROTHSTEIN or
    POINT_BIG context."""
    gens, m, k = ctx.gens, ctx.m, ctx.k
    out = gens.zero()
    dp_phi = [phi.partial_even(gens.even[m + i]) for i in range(m)]
    dp_psi = [psi.partial_even(gens.even[m + i]) for i in range(m)]
    for i in range(m):
        out = out + nabla(ctx, i, phi) * dp_psi[i]
        out = out - dp_phi[i] * nabla(ctx, i, psi)
    if ctx.connection is not None:
        for i in range(m):
            if dp_phi[i].is_zero():
                continue
            for j in range(m):
                if dp_psi[j].is_zero():
                    continue
                for alpha in range(k):
                    for beta in range(k):
                        R = ctx.connection.curvature(i, j, beta, alpha)
                        if R.is_zero():
                            continue
                        out = out + (R * gens.gen(gens.odd[alpha])
                                     * gens.gen(gens.odd[k + beta])
                                     * dp_phi[i] * dp_psi[j])
    for alpha in range(k):
        lower, upper = gens.odd[alpha], gens.odd[k + alpha]
        jlo = phi.partial_odd(lower, "right")
        if not jlo.is_zero():
            out = out + jlo * psi.partial_odd(upper, "left")
        jup = phi.partial_odd(upper, "right")
        if not jup.is_zero():
            out = out + jup * psi.partial_odd(lower, "left")
    return out


def master_residuals(ctx, theta):
    """{Theta, Theta} and its five bidegree components, one full
    bracket each (brackets.master_residuals, without its degree check)."""
    parts = bidegree_components(theta)
    phi, mu, gam, psi = (parts.get(key, ctx.gens.zero())
                         for key in ((0, 3), (1, 2), (2, 1), (3, 0)))
    br = ctx.bracket
    half = Fraction(1, 2)
    components = {
        (1, 3): half * br(mu, mu) + br(gam, phi),
        (3, 1): half * br(gam, gam) + br(mu, psi),
        (2, 2): br(mu, gam) + br(phi, psi),
        (0, 4): br(mu, phi),
        (4, 0): br(gam, psi),
    }
    return {"total": br(theta, theta), "components": components}


def darboux_residuals(ctx):
    """`brackets.darboux_residuals`, one full bracket per entry (the
    table body of `rothstein-check` before it)."""
    gens, m, k = ctx.gens, ctx.m, ctx.k
    r = ctx.darboux_momenta()
    g = gens.gen
    residuals = {}
    for i in range(m):
        for j in range(m):
            want = gens.scalar(1 if i == j else 0)
            residuals[f"{{q{i+1},r{j+1}}}"] = \
                ctx.bracket(g(gens.even[i]), r[j]) - want
            residuals[f"{{r{i+1},r{j+1}}}"] = ctx.bracket(r[i], r[j])
        for a in range(k):
            residuals[f"{{r{i+1},a_{a+1}}}"] = \
                ctx.bracket(r[i], g(gens.odd[a]))
            residuals[f"{{r{i+1},a^{a+1}}}"] = \
                ctx.bracket(r[i], g(gens.odd[k + a]))
    for a in range(k):
        for b in range(k):
            want = gens.scalar(1 if a == b else 0)
            residuals[f"{{a^{a+1},a_{b+1}}}"] = \
                ctx.bracket(g(gens.odd[k + a]), g(gens.odd[b])) - want
    return residuals
