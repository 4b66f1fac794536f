"""Independent oracles for the Lie-side engine: the explicit
Chevalley-Eilenberg formula that `ce_differential` replaced by
(-1)^{n+1} [mu, f]_NR, the dense matrix of delta built from it, and the
dense bodies that the sparse insertion of `multilinear` replaced: the
NR diamond and the Gerstenhaber circle over every index tuple, the
triple-by-triple Jacobi scan, and composition with a linear map."""

import itertools
from fractions import Fraction

from diracdeform.multilinear import (
    MultiMap,
    NonSymMultiMap,
    NotLie,
    _cochain_basis,
    _psign,
    _unit_cochains,
    _zvec,
    is_lie,
    shuffles,
)


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


def delta_matrix(mu, k):
    """Dense matrix of the CE differential A^k -> A^{k+1} in the
    canonical cochain bases (columns indexed by the domain basis), one
    column per unit cochain from the explicit formula."""
    if not is_lie(mu):
        raise NotLie("mu does not satisfy the Jacobi identity")
    cols = [ce_differential(mu, e).terms for e in _unit_cochains(k, mu.dim)]
    return [[col.get(key, Fraction(0)) for col in cols]
            for key in _cochain_basis(k + 1, mu.dim)]
