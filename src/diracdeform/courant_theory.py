"""Split Courant algebroids and their Dirac deformations: what the CLI
does not run, read off the charge Theta of `courant.build_theta`.
`diracdeform.cli` does not import this module, so no job compiles it;
`test_acceptance` pins its claims."""

from fractions import Fraction

from .algebroid import FormalSeries
from .brackets import derived_bracket
from .courant import (
    CourantInput,
    ShapeError,
    _q_monomials,
    _report,
    anchor_apply,
    build_theta,
    d_L,
    deform_series_dirac,
    mc_residual_one,
    psi_triple,
)
from .superalg import NotHomogeneous, bidegree_components, to_text


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def courant_bracket(th, e1, e2):
    """[e1, e2] = {{e1, Theta}, e2}."""
    return derived_bracket(th.ctx, th.theta, e1, e2)


def pairing(th, e1, e2):
    """<e1, e2> for chi-degree-1 elements, as a base function."""
    return th.ctx.bracket(e1, e2)


def dual_bracket(th, alpha, beta):
    """[alpha, beta]_* = {{alpha, gamma}, beta} on upper-generated
    forms, extended to all degrees by the bracket itself."""
    return th.ctx.bracket(th.ctx.bracket(alpha, th.gamma), beta)


def t_omega(th, omega):
    """T_omega = 1/6 [omega, omega, omega]_psi."""
    return Fraction(1, 6) * psi_triple(th, omega, omega, omega)


def _psi_eval(th, al1, al2, al3):
    """psi(al1, al2, al3) by nested insertion of upper 1-forms."""
    br = th.ctx.bracket
    return br(al3, br(al2, br(al1, th.psi)))


# ---------------------------------------------------------------------------
# the graph deformation equation
# ---------------------------------------------------------------------------

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


def deform_extend_dirac(inp_or_theta, prefix, degree_cap=2):
    """The certificate of order len(prefix) + 1 (see deform_series_dirac)."""
    return deform_series_dirac(inp_or_theta, prefix, len(prefix) + 1,
                               degree_cap=degree_cap)[1][-1]


# ---------------------------------------------------------------------------
# the quasi-Lie lemma
# ---------------------------------------------------------------------------

def quasi_lemma_check(inp, raise_on_fail=False):
    """The three structure identities of the split charge, verified on
    frame 1-forms (upper generators), with one q-weighted variant."""
    th = build_theta(inp)
    br = th.ctx.bracket
    k = th.input.k
    gens = th.gens

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

    return _report({}, {"anchor_defect": fail1, "jacobiator": fail2,
                        "psi_coherence": fail3}, raise_on_fail)


# ---------------------------------------------------------------------------
# change of isotropic complement
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


def _matrix_to_form(th, M):
    k = th.input.k
    out = th.zero()
    for a in range(k):
        for b in range(a + 1, k):
            if not (M[a][b] + M[b][a]).is_zero():
                raise ShapeError("M", "matrix is not antisymmetric")
            out = out + M[a][b] * th.upper(a) * th.upper(b)
    return out


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
    W = [_to_matrix(th, omega_series[i], True, "omega",
                    "an upper-generated 2-form") for i in range(N + 1)]
    L = _to_matrix(th, lam, False, "lam", "a lower-generated bivector")
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
# stock inputs
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


# ---------------------------------------------------------------------------
# insertions and the ghost degree
# ---------------------------------------------------------------------------

class NotOddLinear(Exception):
    pass


def _odd_linear_parts(s):
    """Decompose an odd-linear element into [(odd_name, coeff)]."""
    parts = []
    for (e, o), c in s.terms.items():
        if any(e) or len(o) != 1:
            raise NotOddLinear(to_text(s))
        parts.append((s.gens.odd[o[0]], c))
    return parts


def insert_left(s, phi):
    """i(s): left insertion, a left odd derivative for each factor of s."""
    out = phi.gens.zero()
    for name, c in _odd_linear_parts(s):
        out = out + phi.partial_odd(name, "left") * c
    return out


def insert_right(s, phi):
    """j(s): right insertion; j(s)phi = -(-1)^l i(s)phi in odd degree l."""
    out = phi.gens.zero()
    for name, c in _odd_linear_parts(s):
        out = out + phi.partial_odd(name, "right") * c
    return out


def ghost_degree(a):
    """lambda - epsilon if uniform across monomials; NotHomogeneous else."""
    ghs = {lam - eps for (eps, lam) in bidegree_components(a)}
    if len(ghs) > 1:
        raise NotHomogeneous("mixed ghost degrees")
    return ghs.pop() if ghs else 0
