"""Linear Dirac structures on V + V*.

Everything here is exact, over Q (Fraction).  The double-precision
routines (compatible structure, frame transport, projector, subspace
distance) live in `diracdeform.numeric`.

Conventions.  Elements of V + V* are row vectors (x_1..x_n, eta_1..eta_n).
The symmetric pairing is <(x,eta),(y,mu)> = eta(y) + mu(x); the graph of a
two-form omega is {(x, omega x)} with (omega x)_j = sum_i omega[j][i] x_i,
and the graph of a bivector pi is {(pi eta, eta)}.

The flip (x, eta) -> (eta, x) preserves the pairing, so it sends a Dirac
structure L to a Dirac structure flip(L), read again as (first half,
second half) row vectors.  It exchanges V and V*, range and corange,
kernel L cap V and L cap V*, and two-form and bivector graphs; each
V*-side construction here is its V-side twin conjugated by the flip.
"""

from fractions import Fraction
from operator import mul

from . import ratlin
from .jsonin import InputError, array, fields, natural, rational
from .ratlin import Subspace, frac


class NotAntisymmetric(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class NotDirac(Exception):
    pass


def _check_antisymmetric(M):
    n = len(M)
    for i in range(n):
        if len(M[i]) != n:
            raise ShapeMismatch("matrix is not square")
        for j in range(n):
            if frac(M[i][j]) != -frac(M[j][i]):
                raise NotAntisymmetric("matrix is not antisymmetric")


class LinearDirac:
    """A maximal isotropic subspace of V + V*."""

    def __init__(self, n, subspace):
        if subspace.ambient_dim != 2 * n:
            raise ShapeMismatch("subspace does not live in V + V*")
        if subspace.dim != n:
            raise NotDirac(f"dimension {subspace.dim}, expected {n}")
        # <u_a, u_b> = eta_a(x_b) + eta_b(x_a): isotropic iff the
        # matrix eta_a(x_b) of the basis is antisymmetric
        basis = subspace.basis
        M = [[sum(map(mul, u[n:], v[:n])) for v in basis] for u in basis]
        if any(M[a][b] + M[b][a] for a in range(n) for b in range(a, n)):
            raise NotDirac("subspace is not isotropic")
        self.n = n
        self.subspace = subspace

    def __eq__(self, other):
        return (isinstance(other, LinearDirac) and self.n == other.n
                and self.subspace == other.subspace)

    def __hash__(self):
        return hash(("LinearDirac", self.n, self.subspace))

    def __repr__(self):
        return f"LinearDirac(n={self.n})"


def flip(L):
    """The image of L under (x, eta) -> (eta, x).  The flip preserves
    the pairing, so the image is Dirac and is not checked again."""
    n = L.n
    F = object.__new__(LinearDirac)
    F.n = n
    F.subspace = Subspace(2 * n, [list(v[n:]) + list(v[:n])
                                  for v in L.subspace.basis])
    return F


def from_two_form(omega):
    _check_antisymmetric(omega)
    n = len(omega)
    basis = []
    for i in range(n):
        v = [Fraction(1 if j == i else 0) for j in range(n)]
        v += [frac(omega[j][i]) for j in range(n)]
        basis.append(v)
    return LinearDirac(n, Subspace(2 * n, basis))


def from_bivector(pi):
    return flip(from_two_form(pi))


def range_of(L):
    """Subspace of V spanned by the x-parts of L (its range)."""
    n = L.n
    return Subspace(n, [list(v[:n]) for v in L.subspace.basis])


def lift(L, x):
    """Some eta with (x, eta) in L; requires x in the range of L."""
    n = L.n
    basis = L.subspace.basis
    status, c = ratlin.solve(ratlin.transpose([v[:n] for v in basis]),
                             list(x))
    if status != "SOLUTION":
        raise ValueError("vector is not in the range of the structure")
    return ratlin.mat_vec(ratlin.transpose([v[n:] for v in basis]), c)


def intersect_V(L):
    """L cap V, as a subspace of V."""
    n = L.n
    inter = L.subspace.intersect(Subspace(2 * n, ratlin.identity(2 * n)[:n]))
    return Subspace(n, [list(v[:n]) for v in inter.basis])


def _range_form(L):
    """Range R of L and the form Omega[a][b] = eta_a(r_b) on its canonical
    basis, for any lifts (r_a, eta_a) in L (they differ by L cap V*,
    which annihilates R)."""
    R = range_of(L)
    etas = [lift(L, r) for r in R.basis]
    Omega = [[sum(e[i] * frac(r2[i]) for i in range(L.n))
              for r2 in R.basis] for e in etas]
    return R, Omega


def represent(L):
    """Both classifications of a linear Dirac structure.

    Returns a dict with:
      R      range subspace of V,
      Omega  antisymmetric dim(R) x dim(R) matrix in the canonical basis of R,
      K      kernel subspace L cap V,
      pi     antisymmetric matrix on the canonical basis of K-annihilator
             covectors (the corange of L), pi[a][b] = w_b(x_a) for lifts
             (x_a, w_a) in L: the range and form of flip(L).
    """
    R, Omega = _range_form(L)
    W, pi = _range_form(flip(L))
    return {"R": R, "Omega": Omega, "K": intersect_V(L), "corange": W,
            "pi": pi}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _frac_str(x):
    f = frac(x)
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


def subspace_to_json(S):
    return {"ambient": S.ambient_dim,
            "basis": [[_frac_str(x) for x in v] for v in S.basis]}


def _matrix(v, path, width, height=None):
    """Rational rows of length width (height rows if given) at path."""
    return [[rational(x, f"{path}[{i}][{j}]")
             for j, x in enumerate(array(row, f"{path}[{i}]", width))]
            for i, row in enumerate(array(v, path, height))]


def subspace_from_json(obj, path="$"):
    fields(obj, path, ("ambient", "basis"))
    ambient = natural(obj["ambient"], f"{path}.ambient")
    return Subspace(ambient, _matrix(obj["basis"], f"{path}.basis", ambient))


def dirac_from_json(obj, path="$"):
    """{"n", "subspace"} as a LinearDirac; a non-Dirac subspace is an
    InputError."""
    fields(obj, path, ("n", "subspace"))
    n = natural(obj["n"], f"{path}.n")
    S = subspace_from_json(obj["subspace"], f"{path}.subspace")
    try:
        return LinearDirac(n, S)
    except (NotDirac, ShapeMismatch) as e:
        raise InputError(path, f"not a Dirac structure ({e})")


_FORMS = ("subspace", "two_form", "bivector")


def dirac_from_input(obj):
    """LinearDirac from n plus exactly one of subspace (rows of length
    2n), two_form or bivector (n x n); a well-formed input that is not
    Dirac raises NotDirac or NotAntisymmetric."""
    fields(obj, "$", ("n",), _FORMS)
    n = natural(obj["n"], "$.n")
    given = [key for key in _FORMS if key in obj]
    if len(given) != 1:
        raise InputError("$", "expected exactly one of " + ", ".join(_FORMS))
    key = given[0]
    if key == "subspace":
        rows = _matrix(obj[key], "$.subspace", 2 * n)
        return LinearDirac(n, Subspace(2 * n, rows))
    M = _matrix(obj[key], f"$.{key}", n, n)
    return from_two_form(M) if key == "two_form" else from_bivector(M)
