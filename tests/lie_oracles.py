"""Independent oracles for the Lie-side engine: the explicit
Chevalley-Eilenberg formula that `ce_differential` replaced by
(-1)^{n+1} [mu, f]_NR, the dense matrix of delta built from the same
formula row by row (and, to check that, from one ce_differential per
unit cochain), and the dense bodies that the sparse insertion of
`multilinear` replaced: the NR diamond and the Gerstenhaber circle
over every index tuple, the triple-by-triple Jacobi scan, and
composition with a linear map; the columns of delta by two generic
sparse insertions per unit cochain, which `_delta_columns` replaced by
insertions from mu's tables on bit masks; and the Crainic-Moerdijk
bracket of multiderivations written out as shuffle sums on frame
sections, which `cm_bracket` replaced by the commutator of Grassmann
derivations; and the inverse of `iso_I` by an exact linear solve over
candidate monomials, which `iso_I_inv` replaced by a direct formula; and
cohomology dimensions from the full kernel and representative
computation of each degree, which `cohomology_dims` replaced by one
rank per delta.  `to_vector`/`from_vector` write a cochain on a list of
coordinate keys and back, for tests that compare vectors, and
`structure_constants_to_json` writes the input that
`multilinear.structure_constants_from_json` reads."""

import itertools
from fractions import Fraction

from diracdeform import ratlin
from diracdeform.algebroid import (
    BundleMismatch,
    MultiDerivation,
    _cohomology,
    iso_I,
    multivector_generators,
)
from diracdeform.multilinear import (
    MultiMap,
    NonSymMultiMap,
    NotLie,
    _cochain_basis,
    _from_terms,
    _insert,
    _psign,
    _slots,
    _unit_cochains,
    _zvec,
    is_lie,
)
from diracdeform.superalg import NotHomogeneous


def shuffles(first, second):
    """Yield (positions_first, positions_second, sign) over all
    (first, second)-shuffles of range(first + second)."""
    n = first + second
    for chosen in itertools.combinations(range(n), first):
        rest = tuple(i for i in range(n) if i not in chosen)
        inv = sum(c - i for i, c in enumerate(chosen))
        yield chosen, rest, (-1) ** inv


def eval_first_vector(f, vec, rest):
    """Value of the MultiMap f with an arbitrary vector in the first
    slot and basis indices in the remaining slots."""
    out = list(_zvec(f.dim))
    for g, coeff in enumerate(vec):
        if coeff == 0:
            continue
        val = f.eval_indices((g,) + tuple(rest))
        for t in range(f.dim):
            out[t] += coeff * val[t]
    return tuple(out)


def jacobiator(mu, x, y, z):
    """[[x,y],z] + [[y,z],x] + [[z,x],y] for basis indices x, y, z."""
    dim = mu.dim
    out = list(_zvec(dim))
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        inner = mu.eval_indices((a, b))
        val = eval_first_vector(mu, inner, (c,))
        # [[a,b],c] = -[c,[a,b]] = [inner, e_c]
        for t in range(dim):
            out[t] += val[t]
    return tuple(out)


def first_failing_triple(mu):
    """The first basis triple x < y < z (lexicographic) with a nonzero
    jacobiator, or None, found by scanning every triple."""
    for t in itertools.combinations(range(mu.dim), 3):
        if any(jacobiator(mu, *t)):
            return t
    return None


def nr_diamond(f, g):
    """f <> g evaluated on every increasing index tuple: a sum over
    (arity(g), arity(f)-1)-shuffles of the arguments."""
    m, n = f.n, g.n
    if m == 0:
        return MultiMap.zero(max(n - 1, 0), f.dim)
    dim = f.dim
    out = {}
    for idx in itertools.combinations(range(dim), m + n - 1):
        acc = list(_zvec(dim))
        for pos_g, pos_rest, sign in shuffles(n, m - 1):
            inner = g.eval_indices(tuple(idx[p] for p in pos_g))
            if not any(inner):
                continue
            rest = tuple(idx[p] for p in pos_rest)
            val = eval_first_vector(f, inner, rest)
            for t in range(dim):
                acc[t] += sign * val[t]
        if any(acc):
            out[idx] = tuple(acc)
    return MultiMap(m + n - 1, dim, out)


def gerstenhaber_circ(a, b):
    """a o b = sum_i (-1)^{(i-1)(n-1)} a(.., b(x_i..x_{i+n-1}), ..),
    evaluated on every index tuple."""
    m, n = a.n, b.n
    dim, r = a.dim, max(m + n - 1, 0)
    out = {}
    for idx in itertools.product(range(dim), repeat=r):
        acc = list(_zvec(dim))
        for i in range(1, m + 1):
            inner = b.eval_indices(idx[i - 1:i - 1 + n])
            if not any(inner):
                continue
            sign = _psign((i - 1) * (n - 1))
            for gamma, coeff in enumerate(inner):
                if coeff == 0:
                    continue
                val = a.eval_indices(
                    idx[:i - 1] + (gamma,) + idx[i - 1 + n:])
                for t in range(dim):
                    acc[t] += sign * coeff * val[t]
        if any(acc):
            out[idx] = tuple(acc)
    return NonSymMultiMap(r, dim, out)


def gerstenhaber_bracket(f, g):
    """[f, g] = f o g - (-1)^{(m-1)(n-1)} g o f from the dense circle."""
    sign = _psign((f.n - 1) * (g.n - 1))
    return gerstenhaber_circ(f, g) - sign * gerstenhaber_circ(g, f)


def compose_linear(lm, f):
    """lm(f(...)) for a linear map lm and an n-ary MultiMap f."""
    c = {}
    for idx, vec in f.c.items():
        out = list(_zvec(f.dim))
        for g, coeff in enumerate(vec):
            if coeff == 0:
                continue
            val = lm.eval_indices((g,))
            for t in range(f.dim):
                out[t] += coeff * val[t]
        if any(out):
            c[idx] = tuple(out)
    return MultiMap(f.n, f.dim, c)


def ce_differential(mu, f):
    """delta f(x_0..x_n) = sum_i (-1)^i [x_i, f(..^x_i..)]
    + sum_{i<j} (-1)^{i+j} f([x_i, x_j], ..^x_i..^x_j..), written out
    term by term (adjoint coefficients, no Jacobi check)."""
    n, dim = f.n, f.dim
    out = {}
    for idx in itertools.combinations(range(dim), n + 1):
        acc = list(_zvec(dim))
        for i in range(n + 1):
            rest = idx[:i] + idx[i + 1:]
            inner = f.eval_indices(rest)
            if any(inner):
                # (-1)^{i+1} mu(x_i, f(...)) with 1-based i
                val = eval_first_vector(mu, inner, (idx[i],))
                s = (-1) ** (i + 1 + 1)  # mu(x_i, v) = -mu(v, x_i)
                for t in range(dim):
                    acc[t] -= s * val[t]
        for i, j in itertools.combinations(range(n + 1), 2):
            br = mu.eval_indices((idx[i], idx[j]))
            if not any(br):
                continue
            rest = tuple(idx[t] for t in range(n + 1) if t not in (i, j))
            val = eval_first_vector(f, br, rest)
            s = (-1) ** (i + 1 + j + 1)
            for t in range(dim):
                acc[t] += s * val[t]
        if any(acc):
            out[idx] = tuple(acc)
    return MultiMap(n + 1, dim, out)


def to_vector(f, basis):
    """The coordinates of a cochain f on a list of keys (idx, g)."""
    terms = f.terms
    return [terms.get(key, Fraction(0)) for key in basis]


def from_vector(vec, k, dim, basis):
    """The k-cochain with coordinates vec on the keys of basis."""
    return _from_terms(MultiMap, k, dim, dict(zip(basis, vec)))


def delta_matrix(mu, k):
    """Dense matrix of the CE differential A^k -> A^{k+1} in the
    canonical cochain bases (columns indexed by the domain basis), built
    row by row from the explicit formula: the row of (X, t), X = (x_0 <
    ... < x_k), holds the coefficient of e^X e_t in delta of each unit
    cochain e^idx e_g,

        sum_i (-1)^i [x_i, e_g]_t                        (idx = X - x_i)
        + sum_{i<j} (-1)^{i+j} sign(m, rest) [x_i, x_j]_m   (g = t),

    where rest = X - x_i - x_j and idx, sign(m, rest) sort (m, *rest)."""
    if not is_lie(mu):
        raise NotLie("mu does not satisfy the Jacobi identity")
    dim = mu.dim
    col = {key: n for n, key in enumerate(_cochain_basis(k, dim))}
    rows = []
    for X, t in _cochain_basis(k + 1, dim):
        row = [Fraction(0)] * len(col)
        for i, xi in enumerate(X):
            rest = X[:i] + X[i + 1:]
            for g in range(dim):
                row[col[(rest, g)]] += (-1) ** i * mu.eval_indices((xi, g))[t]
        for i, j in itertools.combinations(range(k + 1), 2):
            br = mu.eval_indices((X[i], X[j]))
            rest = tuple(x for n, x in enumerate(X) if n not in (i, j))
            for m, v in enumerate(br):
                if v and m not in rest:
                    inv = sum(x < m for x in rest)
                    idx = tuple(sorted((m, *rest)))
                    row[col[(idx, t)]] += (-1) ** (i + j + inv) * v
        rows.append(row)
    return rows


def delta_columns(terms, dim, k):
    """The columns of delta^k that `multilinear._delta_columns` builds
    from mu's tables on bit masks, here by two generic sparse insertions
    per unit cochain e = e^idx (x) e_g:
    (-1)^{k+1} mu <> e - e <> mu."""
    mu_slots = _slots(terms)
    cols = []
    for idx, g in _cochain_basis(k, dim):
        e = {(idx, g): 1}
        col = _insert(mu_slots, e, _psign(k + 1))
        _insert(_slots(e), terms, -1, col)
        cols.append({key: v for key, v in col.items() if v})
    return cols


def delta_matrix_by_cochain(mu, k):
    """delta_matrix with one column per unit cochain, each from
    ce_differential over every index tuple."""
    cols = [ce_differential(mu, e).terms for e in _unit_cochains(k, mu.dim)]
    return [[col.get(key, Fraction(0)) for col in cols]
            for key in _cochain_basis(k + 1, mu.dim)]


def cohomology_dims(mu, degrees):
    """[dim H^k for k in degrees], each from the kernel basis and the
    representatives of its own degree, after one Jacobi check."""
    if not is_lie(mu):
        raise NotLie("mu does not satisfy the Jacobi identity")
    return [_cohomology(mu, k)[0] for k in degrees]


def _vf_commutator(gens, m, X, Y):
    """[X, Y] for vector fields given as m-tuples of polynomials."""
    out = []
    for t in range(m):
        acc = gens.zero()
        for i in range(m):
            acc = acc + X[i] * Y[t].partial_even(gens.even[i])
            acc = acc - Y[i] * X[t].partial_even(gens.even[i])
        out.append(acc)
    return tuple(out)


def _cm_circ(D1, D2, sections):
    """D1 o D2 on the given sections: sum over (q+1, p)-shuffles of
    plugging D2 of the first block into the first slot of D1."""
    p, q = D1.degree, D2.degree
    acc = [D1.gens.zero() for _ in range(D1.k)]
    for pos_in, pos_rest, sign in shuffles(q + 1, p):
        inner = D2.evaluate([sections[t] for t in pos_in])
        args = [inner] + [sections[t] for t in pos_rest]
        val = D1.evaluate(args)
        for t in range(D1.k):
            acc[t] = acc[t] + sign * val[t]
    return tuple(acc)


def _sigma_circ(D1, D2, sections):
    """sigma_{D1} o D2 on p+q sections (empty when D1 has no symbol
    slots)."""
    p, q = D1.degree, D2.degree
    m = D1.m
    if p <= 0:
        return (D1.gens.zero(),) * m
    acc = [D1.gens.zero() for _ in range(m)]
    for pos_in, pos_rest, sign in shuffles(q + 1, p - 1):
        inner = D2.evaluate([sections[t] for t in pos_in])
        args = [inner] + [sections[t] for t in pos_rest]
        val = D1.sigma(args)
        for t in range(m):
            acc[t] = acc[t] + sign * val[t]
    return tuple(acc)


def cm_bracket(D1, D2):
    """[D1, D2] = (-1)^{pq} D1 o D2 - D2 o D1 with the matching symbol

        sigma = (-1)^{pq} sigma_{D1} o D2 - sigma_{D2} o D1
                + [sigma_{D1}, sigma_{D2}],

    evaluated on every tuple of frame sections."""
    if not D1.same_bundle(D2):
        raise BundleMismatch("multiderivations over different bundles")
    p, q = D1.degree, D2.degree
    r = p + q
    if r < -1:
        raise ValueError("bracket of two sections is not defined")
    gens, m, k = D1.gens, D1.m, D1.k
    sign_pq = _psign(p * q)
    frame = {}
    for idx in itertools.combinations(range(k), r + 1):
        secs = [D1.basis_section(a) for a in idx]
        t1 = _cm_circ(D1, D2, secs)
        t2 = _cm_circ(D2, D1, secs)
        vec = tuple(sign_pq * a - b for a, b in zip(t1, t2))
        if any(not v.is_zero() for v in vec):
            frame[idx] = vec
    symbol = {}
    if r >= 0:
        for idx in itertools.combinations(range(k), r):
            secs = [D1.basis_section(a) for a in idx]
            s1 = _sigma_circ(D1, D2, secs)
            s2 = _sigma_circ(D2, D1, secs)
            acc = [sign_pq * a - b for a, b in zip(s1, s2)]
            if p >= 0 and q >= 0:
                for pos1, pos2, sh_sign in shuffles(p, q):
                    X = D1.sigma([secs[t] for t in pos1])
                    Y = D2.sigma([secs[t] for t in pos2])
                    comm = _vf_commutator(gens, m, X, Y)
                    for t in range(m):
                        acc[t] = acc[t] + sh_sign * comm[t]
            if any(not v.is_zero() for v in acc):
                symbol[idx] = tuple(acc)
    return MultiDerivation(gens, m, k, r, frame, symbol)


def _md_coords(D, xmonos):
    """Flatten frame and symbol onto coordinates indexed by
    (kind, index-tuple, component, x-monomial)."""
    vec = {}
    for idx, comps in D.frame.items():
        for t, poly in enumerate(comps):
            for (e, o), c in poly.terms.items():
                vec[("f", idx, t, e)] = c
                xmonos.add(e)
    for idx, comps in D.symbol.items():
        for t, poly in enumerate(comps):
            for (e, o), c in poly.terms.items():
                vec[("s", idx, t, e)] = c
                xmonos.add(e)
    return vec


def iso_I_inv(D, base=None):
    """Inverse of iso_I, by exact linear solve over the finitely many
    base monomials occurring in D."""
    m, k = D.m, D.k
    gens = multivector_generators(m, k)
    kdeg = D.degree + 1
    xmonos = set()
    target = _md_coords(D, xmonos)
    if not xmonos:
        xmonos.add((0,) * m)
    candidates = []
    for xe in sorted(xmonos):
        xpart = {f"x{i + 1}": xe[i] for i in range(m) if xe[i]}
        for beta in range(k):
            for alpha in itertools.combinations(range(k), kdeg):
                mono = gens.monomial(
                    1, {**xpart, f"v{beta + 1}": 1},
                    [f"vh{a + 1}" for a in alpha])
                candidates.append(mono)
        if kdeg >= 1:
            for i in range(m):
                for gam in itertools.combinations(range(k), kdeg - 1):
                    mono = gens.monomial(
                        1, xpart,
                        [f"xh{i + 1}"] + [f"vh{a + 1}" for a in gam])
                    candidates.append(mono)
    status, sol = ratlin.solve_sparse(
        [_md_coords(iso_I(c, m, k, base=base), set()) for c in candidates],
        target)
    if status != "SOLUTION":
        raise NotHomogeneous("multiderivation is not in the image")
    P = gens.zero()
    for coeff, cand in zip(sol, candidates):
        if coeff:
            P = P + coeff * cand
    return P


def structure_constants_to_json(mu):
    rows = []
    for (a, b), vec in sorted(mu.c.items()):
        for g, v in enumerate(vec):
            if v:
                rows.append([a, b, g, str(v)])
    return {"dim": mu.dim, "c": rows}
