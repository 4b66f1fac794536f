"""The SuperElement bodies that the index-keyed derivatives and the
one-pass subtraction replaced, kept as independent oracles: derivatives
by generator name with the sign (-1) ** pos, and a - b as a + (-b)."""

from diracdeform.superalg import SuperElement


def partial_even(a, var):
    idx = a.gens.even_index(var)
    terms = {}
    for (e, o), c in a.terms.items():
        if e[idx]:
            e2 = list(e)
            e2[idx] -= 1
            terms[(tuple(e2), o)] = terms.get((tuple(e2), o), 0) + c * e[idx]
    return SuperElement(a.gens, {m: c for m, c in terms.items() if c})


def partial_odd(a, var, side="left"):
    idx = a.gens.odd_index(var)
    terms = {}
    for (e, o), c in a.terms.items():
        if idx not in o:
            continue
        pos = o.index(idx)
        sign = (-1) ** pos if side == "left" else (-1) ** (len(o) - 1 - pos)
        o2 = o[:pos] + o[pos + 1:]
        key = (e, o2)
        s = terms.get(key, 0) + c * sign
        if s:
            terms[key] = s
        else:
            del terms[key]
    return SuperElement(a.gens, terms)


def sub(a, b):
    """a - b, for b an element or a scalar."""
    return a + (-a._coerce(b))


def rsub(c, a):
    """c - a for a scalar c."""
    return a._coerce(c) + (-a)
