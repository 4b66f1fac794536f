"""The explicit Chevalley-Eilenberg formula that `ce_differential`
replaced by (-1)^{n+1} [mu, f]_NR, and the dense matrix of delta, kept
as independent oracles for the Lie-side engine."""

import itertools
from fractions import Fraction

from diracdeform.multilinear import (
    MultiMap,
    NotLie,
    _cochain_basis,
    _delta_columns,
    _zvec,
    is_lie,
)


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
                val = mu.eval_first_vector(inner, (idx[i],))
                s = (-1) ** (i + 1 + 1)  # mu(x_i, v) = -mu(v, x_i)
                for t in range(dim):
                    acc[t] -= s * val[t]
        for i, j in itertools.combinations(range(n + 1), 2):
            br = mu.eval_indices((idx[i], idx[j]))
            if not any(br):
                continue
            rest = tuple(idx[t] for t in range(n + 1) if t not in (i, j))
            val = f.eval_first_vector(br, rest)
            s = (-1) ** (i + 1 + j + 1)
            for t in range(dim):
                acc[t] += s * val[t]
        if any(acc):
            out[idx] = tuple(acc)
    return MultiMap(n + 1, dim, out)


def delta_matrix(mu, k):
    """Dense matrix of the CE differential A^k -> A^{k+1} in the
    canonical cochain bases (columns indexed by the domain basis)."""
    if not is_lie(mu):
        raise NotLie("mu does not satisfy the Jacobi identity")
    cols = _delta_columns(mu, k)
    return [[col.get(key, Fraction(0)) for col in cols]
            for key in _cochain_basis(k + 1, mu.dim)]
