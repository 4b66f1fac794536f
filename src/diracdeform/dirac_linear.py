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

import math
from fractions import Fraction
from operator import mul

from . import ratlin
from .jsonin import InputError, array, fields, natural, rational
from .ratlin import Subspace, frac


class NotAntisymmetric(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class FactorMismatch(Exception):
    pass


class NotIsotropic(Exception):
    pass


class NotDirac(Exception):
    pass


class NoRationalExtension(Exception):
    pass


def _check_antisymmetric(M):
    n = len(M)
    for i in range(n):
        if len(M[i]) != n:
            raise ShapeMismatch("matrix is not square")
        for j in range(n):
            if frac(M[i][j]) != -frac(M[j][i]):
                raise NotAntisymmetric("matrix is not antisymmetric")


class PairedSpace:
    """V + V* with its canonical split-signature pairing."""

    def __init__(self, n):
        self.n = n

    def pairing_matrix(self):
        n = self.n
        G = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            G[i][n + i] = Fraction(1)
            G[n + i][i] = Fraction(1)
        return G

    def pair(self, u, v):
        n = self.n
        return (sum(frac(u[n + i]) * frac(v[i]) for i in range(n))
                + sum(frac(v[n + i]) * frac(u[i]) for i in range(n)))

    def signature(self):
        pos, neg, zero, _ = ratlin.signature_normal_form(self.pairing_matrix())
        return pos, neg, zero


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


def space_V(n):
    basis = [[Fraction(1 if j == i else 0) for j in range(2 * n)]
             for i in range(n)]
    return LinearDirac(n, Subspace(2 * n, basis))


def flip(L):
    """The image of L under (x, eta) -> (eta, x).  The flip preserves
    the pairing, so the image is Dirac and is not checked again."""
    n = L.n
    F = object.__new__(LinearDirac)
    F.n = n
    F.subspace = Subspace(2 * n, [list(v[n:]) + list(v[:n])
                                  for v in L.subspace.basis])
    return F


def space_V_star(n):
    return flip(space_V(n))


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


def intersect_V_star(L):
    """L cap V*, as a subspace of V*."""
    return intersect_V(flip(L))


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


def from_R_Omega(R, Omega):
    """Dirac structure with range R and form Omega in R's canonical basis."""
    n = R.ambient_dim
    k = R.dim
    _check_antisymmetric(Omega)
    if len(Omega) != k:
        raise ShapeMismatch("form size does not match dim R")
    basis = []
    # covector eta_a with eta_a(r_b) = Omega[a][b]
    rows = [[frac(R.basis[b][i]) for i in range(n)] for b in range(k)]
    for a in range(k):
        status, eta = ratlin.solve(rows, [frac(Omega[a][b]) for b in range(k)])
        if status != "SOLUTION":
            raise ShapeMismatch("form is not representable on R")
        basis.append(list(R.basis[a]) + eta)
    for v in R.orthogonal().basis:
        basis.append([Fraction(0)] * n + list(v))
    return LinearDirac(n, Subspace(2 * n, basis))


def from_K_pi(K, corange, pi):
    """Dirac structure with kernel K and bivector pi on the corange basis:
    the flip of the structure with range `corange` and form pi.  K must be
    the annihilator of the corange."""
    L = flip(from_R_Omega(corange, pi))
    if intersect_V(L) != K:
        raise NotDirac("kernel is not the annihilator of the corange")
    return L


# ---------------------------------------------------------------------------
# Dirac maps
# ---------------------------------------------------------------------------

def _shape(phi):
    """(rows, columns) of a map matrix; a map with no rows has none."""
    return len(phi), len(phi[0]) if phi else 0


def _phi_t(phi, nw, nv):
    """The nv x nw transpose of the nw x nv matrix phi."""
    return [[frac(phi[j][i]) for j in range(nw)] for i in range(nv)]


def _push(phi, nw, nv, L):
    """{(phi x, eta) : (x, phi* eta) in L} for phi of shape nw x nv."""
    phit = _phi_t(phi, nw, nv)
    # unknowns (x in Q^nv, eta in Q^nw); condition C (x, phi^T eta) = 0
    # for the rows C with L = ker C
    rows = [list(c[:nv]) + [sum(c[nv + i] * phit[i][a] for i in range(nv))
                            for a in range(nw)]
            for c in L.subspace.orthogonal().basis]
    out = []
    for v in ratlin.kernel_basis(rows, nv + nw).basis:
        x, eta = v[:nv], v[nv:]
        px = [sum(frac(phi[j][i]) * x[i] for i in range(nv))
              for j in range(nw)]
        out.append(px + list(eta))
    return LinearDirac(nw, Subspace(2 * nw, out))


def forward_map(phi, L):
    """F_phi(L) = {(phi x, eta) : (x, phi* eta) in L} on the codomain.

    The domain is the space of L, so a map with no rows sends L to the
    structure on the zero space; every row must have L.n entries."""
    if any(len(row) != L.n for row in phi):
        raise ShapeMismatch("map domain does not match the structure")
    return _push(phi, len(phi), L.n, L)


def backward_map(phi, L):
    """B_phi(L) = {(x, phi* eta) : (phi x, eta) in L} on the domain: the
    flip of the forward image of flip(L) under phi*.

    The domain dimension is read from the rows of phi, so a map with no
    rows is ambiguous: [] is read as the map of the zero space, and the
    result lives on Q^0 whatever domain was meant."""
    nw, nv = _shape(phi)
    if L.n != nw:
        raise ShapeMismatch("map codomain does not match the structure")
    return flip(_push(_phi_t(phi, nw, nv), nv, nw, flip(L)))


class CanonicalRelation:
    """Maximal isotropic subspace of E1 x bar(E2)."""

    def __init__(self, n1, n2, subspace):
        amb = 2 * n1 + 2 * n2
        if subspace.ambient_dim != amb:
            raise ShapeMismatch("relation has wrong ambient dimension")
        if subspace.dim != n1 + n2:
            raise NotDirac("relation is not middle-dimensional")
        p1, p2 = PairedSpace(n1), PairedSpace(n2)
        for u in subspace.basis:
            for v in subspace.basis:
                s = p1.pair(u[:2 * n1], v[:2 * n1]) \
                    - p2.pair(u[2 * n1:], v[2 * n1:])
                if s != 0:
                    raise NotDirac("relation is not isotropic")
        self.n1 = n1
        self.n2 = n2
        self.subspace = subspace

    def __eq__(self, other):
        return (isinstance(other, CanonicalRelation)
                and (self.n1, self.n2) == (other.n1, other.n2)
                and self.subspace == other.subspace)


def relation_of_map(phi):
    """The canonical relation of phi: {((phi x, eta), (x, phi* eta))}."""
    nw, nv = _shape(phi)
    phit = _phi_t(phi, nw, nv)
    basis = []
    for i in range(nv):  # parametrized by x = e_i
        px = [frac(phi[j][i]) for j in range(nw)]
        v = px + [Fraction(0)] * nw
        v += [Fraction(1 if j == i else 0) for j in range(nv)]
        v += [Fraction(0)] * nv
        basis.append(v)
    for a in range(nw):  # parametrized by eta = e^a
        v = [Fraction(0)] * nw
        v += [Fraction(1 if b == a else 0) for b in range(nw)]
        v += [Fraction(0)] * nv
        v += [phit[i][a] for i in range(nv)]
        basis.append(v)
    return CanonicalRelation(nw, nv, Subspace(2 * nw + 2 * nv, basis))


def relation_of_dirac(L):
    """L viewed as a relation from E to the zero space."""
    return CanonicalRelation(L.n, 0, L.subspace)


def dirac_of_relation(rel):
    if rel.n2 != 0:
        raise FactorMismatch("relation does not end at the zero space")
    return LinearDirac(rel.n1, rel.subspace)


def compose_relations(L1, L2):
    """L1 o L2 = {(e1, e3) : exists e2 with (e1,e2) in L1, (e2,e3) in L2}."""
    if L1.n2 != L2.n1:
        raise FactorMismatch("middle factors do not match")
    n1, n2, n3 = L1.n1, L1.n2, L2.n2
    d1, d2, d3 = 2 * n1, 2 * n2, 2 * n3
    # (e1, e2, e3) with (e1, e2) in L1 = ker C1 and (e2, e3) in L2 = ker C2
    rows = [list(c) + [Fraction(0)] * d3
            for c in L1.subspace.orthogonal().basis]
    rows += [[Fraction(0)] * d1 + list(c)
             for c in L2.subspace.orthogonal().basis]
    ker = ratlin.kernel_basis(rows, d1 + d2 + d3).basis
    out = [v[:d1] + v[d1 + d2:] for v in ker]
    return CanonicalRelation(n1, n3, Subspace(d1 + d3, out))


def forward_via_relation(phi, L):
    return dirac_of_relation(
        compose_relations(relation_of_map(phi), relation_of_dirac(L)))


def backward_via_relation(phi, L):
    nw = len(phi)
    nv = len(phi[0]) if nw else 0
    # transpose of the relation of phi: from E_V to E_W
    rel = relation_of_map(phi)
    d1, d2 = 2 * nw, 2 * nv
    flipped = Subspace(d1 + d2,
                       [list(v[d1:]) + list(v[:d1])
                        for v in rel.subspace.basis])
    relT = CanonicalRelation(nv, nw, flipped)
    return dirac_of_relation(compose_relations(relT, relation_of_dirac(L)))


# ---------------------------------------------------------------------------
# Bilinear-form tools
# ---------------------------------------------------------------------------

def _form_value(G, u, v):
    n = len(G)
    return sum(frac(u[i]) * frac(G[i][j]) * frac(v[j])
               for i in range(n) for j in range(n))


def max_isotropic_dimension(G):
    pos, neg, zero, _ = ratlin.signature_normal_form(G)
    if zero:
        raise ValueError("form is degenerate")
    return min(pos, neg)


def hyperbolic_completion(G, W):
    """Null partners v_1..v_k for an isotropic W, plus the complement U.

    Output satisfies (v_i, v_j) = 0, (w_i, v_j) = delta_ij, and
    V = span(w_i, v_i) perp-sum U with U the orthogonal complement.
    """
    n = len(G)
    for u in W.basis:
        for v in W.basis:
            if _form_value(G, u, v) != 0:
                raise NotIsotropic("subspace is not isotropic for the form")
    if ratlin.rank([list(r) for r in G]) < n:
        raise ValueError("form is degenerate")
    ws = [list(w) for w in W.basis]
    vs = []
    for i in range(len(ws)):
        # u with (w_j, u) = delta_ij and (v_l, u) = 0 for l < i
        rows = [[sum(frac(G[a][b]) * w[a] for a in range(n))
                 for b in range(n)] for w in ws]
        rows += [[sum(frac(G[a][b]) * v[a] for a in range(n))
                  for b in range(n)] for v in vs]
        rhs = [Fraction(1 if j == i else 0) for j in range(len(ws))]
        rhs += [Fraction(0)] * len(vs)
        status, u = ratlin.solve(rows, rhs)
        if status != "SOLUTION":
            raise ValueError("form is degenerate on the relevant subspace")
        alpha = -_form_value(G, u, u) / 2
        v = [alpha * ws[i][b] + u[b] for b in range(n)]
        vs.append(v)
    span = Subspace(n, ws + vs)
    U = ratlin.annihilator(span, G)
    return vs, U


def _rational_sqrt(q):
    """Exact square root of a rational, or None if it is not a square."""
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if a * a != q.numerator or b * b != q.denominator:
        return None
    return Fraction(a, b)


def extend_isotropic(G, W):
    """Extend isotropic W to dimension min(p, q) when rational null
    vectors are available in the orthogonal complement."""
    n = len(G)
    target = max_isotropic_dimension(G)
    ws = [list(w) for w in W.basis]
    while len(ws) < target:
        span = Subspace(n, ws) if ws else Subspace(n, [])
        vs, U = hyperbolic_completion(G, span) if ws else ([], Subspace(
            n, ratlin.identity(n)))
        # restricted form on U in its canonical basis
        k = U.dim
        Gu = [[_form_value(G, U.basis[a], U.basis[b]) for b in range(k)]
              for a in range(k)]
        pos, neg, zero, T = ratlin.signature_normal_form(Gu)
        diag = []
        for c in range(k):
            vec = [sum(frac(T[r][c]) * U.basis[r][j] for r in range(k))
                   for j in range(n)]
            diag.append((_form_value(G, vec, vec), vec))
        found = None
        for a in range(k):
            da, va = diag[a]
            if da == 0:
                found = va
                break
            for b in range(a + 1, k):
                db, vb = diag[b]
                if db == 0:
                    continue
                if da * db < 0:
                    c2 = -da / db
                    c = _rational_sqrt(c2)
                    if c is not None:
                        found = [x + c * y for x, y in zip(va, vb)]
                        break
            if found is not None:
                break
        if found is None:
            raise NoRationalExtension(
                "no rational null vector found in the complement")
        ws.append(found)
    return Subspace(n, ws)


def gauge_transform(B, L):
    """tau_B(x, eta) = (x, Bx + eta)."""
    _check_antisymmetric(B)
    n = L.n
    if len(B) != n:
        raise ShapeMismatch("gauge field size does not match")
    out = []
    for v in L.subspace.basis:
        x, eta = v[:n], v[n:]
        bx = [sum(frac(B[j][i]) * x[i] for i in range(n)) for j in range(n)]
        out.append(list(x) + [bx[j] + eta[j] for j in range(n)])
    return LinearDirac(n, Subspace(2 * n, out))


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


def dirac_to_json(L):
    return {"n": L.n, "subspace": subspace_to_json(L.subspace)}


def dirac_from_json(obj, path="$"):
    """Inverse of dirac_to_json; a non-Dirac subspace is an InputError."""
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
