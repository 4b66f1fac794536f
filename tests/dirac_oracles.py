"""The mirrored V*-side bodies that `dirac_linear.flip` replaced, and the
explicit halves of `courant.build_theta`, kept as independent oracles:
each writes out the twin of a V-side (or lower) construction directly
instead of conjugating it by the flip (x, eta) -> (eta, x) or
exchanging the summands.  Each half of the charge is written out in
both its forms: with the Darboux momenta r_i (the form that
`build_theta` computes) and with the plain momenta p_i and the torsion
of the connection.  Canonical relations are a second path to
`dirac_theory.forward_map` and `backward_map`: the relation of phi
composed with that of L (`forward_via_relation`,
`backward_via_relation`).  `intersect_V` and `check_dirac` are the
Fraction bodies that the integer echelon rows of `dirac_linear`
replaced: L cap V through orthogonal complements, and isotropy through
the dense matrix eta_a(x_b) of the reduced basis.  `dirac_to_json`
writes the input that `dirac_linear.dirac_from_json` reads."""

from fractions import Fraction
from itertools import combinations
from operator import mul

from diracdeform import ratlin
from diracdeform.brackets import BracketContext
from diracdeform.dirac_linear import (
    LinearDirac,
    NotDirac,
    ShapeMismatch,
    _check_antisymmetric,
    subspace_to_json,
)
from diracdeform.dirac_theory import PairedSpace, _phi_t, _shape
from diracdeform.ratlin import Subspace, frac
from diracdeform.superalg import ConnectionData
from ratlin_oracles import intersect


def space_V_star(n):
    basis = [[Fraction(1 if j == n + i else 0) for j in range(2 * n)]
             for i in range(n)]
    return LinearDirac(n, Subspace(2 * n, basis))


def from_bivector(pi):
    _check_antisymmetric(pi)
    n = len(pi)
    basis = []
    for i in range(n):
        v = [frac(pi[j][i]) for j in range(n)]
        v += [Fraction(1 if j == i else 0) for j in range(n)]
        basis.append(v)
    return LinearDirac(n, Subspace(2 * n, basis))


def intersect_V(L):
    """L cap V, as a subspace of V."""
    n = L.n
    amb = Subspace(2 * n, [[Fraction(1 if j == i else 0)
                            for j in range(2 * n)] for i in range(n)])
    inter = intersect(L.subspace, amb)
    return Subspace(n, [list(v[:n]) for v in inter.basis])


def intersect_V_star(L):
    """L cap V*, as a subspace of V*."""
    n = L.n
    amb = Subspace(2 * n, [[Fraction(1 if j == n + i else 0)
                            for j in range(2 * n)] for i in range(n)])
    inter = intersect(L.subspace, amb)
    return Subspace(n, [list(v[n:]) for v in inter.basis])


def check_dirac(n, subspace):
    """Raise NotDirac, with the message of `LinearDirac`, unless the
    subspace of Q^2n is n-dimensional and isotropic: <u_a, u_b> =
    eta_a(x_b) + eta_b(x_a), so isotropic iff the matrix eta_a(x_b) of
    the basis is antisymmetric."""
    if subspace.dim != n:
        raise NotDirac(f"dimension {subspace.dim}, expected {n}")
    basis = subspace.basis
    M = [[sum(map(mul, u[n:], v[:n])) for v in basis] for u in basis]
    if any(M[a][b] + M[b][a] for a in range(n) for b in range(a, n)):
        raise NotDirac("subspace is not isotropic")


def _lift_vector(L, eta):
    n = L.n
    cols = [list(v) for v in L.subspace.basis]
    M = [[cols[j][n + i] for j in range(len(cols))] for i in range(n)]
    status, c = ratlin.solve(M, list(eta))
    if status != "SOLUTION":
        raise ValueError("covector is not in the corange of the structure")
    x = [Fraction(0)] * n
    for j, cj in enumerate(c):
        for i in range(n):
            x[i] += cj * cols[j][i]
    return x


def corange_pi(L):
    """The corange half of `represent`: (corange W, pi) with
    pi[a][b] = w_b(x_a) for lifts (x_a, w_a) in L."""
    n = L.n
    W = Subspace(n, [list(v[n:]) for v in L.subspace.basis])
    xs = [_lift_vector(L, w) for w in W.basis]
    pi = [[sum(frac(w2[i]) * x[i] for i in range(n))
           for w2 in W.basis] for x in xs]
    return W, pi


def from_K_pi(K, corange, pi):
    """Dirac structure with kernel K and bivector pi on the corange basis."""
    n = K.ambient_dim
    k = corange.dim
    _check_antisymmetric(pi)
    basis = []
    rows = [[frac(corange.basis[b][i]) for i in range(n)] for b in range(k)]
    for a in range(k):
        # vector x_a with w_b(x_a) = pi[a][b]
        status, x = ratlin.solve(rows, [frac(pi[a][b]) for b in range(k)])
        if status != "SOLUTION":
            raise ShapeMismatch("bivector is not representable")
        basis.append(x + list(corange.basis[a]))
    for v in K.basis:
        basis.append(list(v) + [Fraction(0)] * n)
    return LinearDirac(n, Subspace(2 * n, basis))


def backward_map(phi, L):
    """B_phi(L) = {(x, phi* eta) : (phi x, eta) in L} on the domain."""
    nw = len(phi)
    nv = len(phi[0]) if nw else 0
    if L.n != nw:
        raise ShapeMismatch("map codomain does not match the structure")
    phit = [[frac(phi[j][i]) for j in range(nw)] for i in range(nv)]
    C = [[v.get(c, 0) for c in range(2 * nw)]
         for v in L.subspace.echelon.kernel(2 * nw)]
    rows = []
    for crow in C:
        row = [sum(crow[j] * frac(phi[j][i]) for j in range(nw))
               for i in range(nv)]
        row += list(crow[nw:])
        rows.append(row)
    out = []
    for v in ratlin.Echelon(map(ratlin.sparse_row, rows)).kernel(nv + nw):
        v = [v.get(c, 0) for c in range(nv + nw)]
        x, eta = v[:nv], v[nv:]
        pe = [sum(phit[i][a] * eta[a] for a in range(nw)) for i in range(nv)]
        out.append(list(x) + pe)
    return LinearDirac(nv, Subspace(2 * nv, out))


def lower_charge(inp):
    """(mu in Darboux-momentum form, mu in momentum/torsion form, psi) of
    a CourantInput, written out: with r_i = p_i - Gamma_{i alpha}^beta
    a^alpha a_beta,

        mu = -r_i rho_ia a^a - 1/2 c_abg a^a a^b a_g
           = -p_i rho_ia a^a + 1/2 T_abg a^a a^b a_g,

    T_abg = rho_ia Gamma(i, b, g) - rho_ib Gamma(i, a, g) - c_abg."""
    m, k = inp.m, inp.k
    gens = inp.gens
    conn = ConnectionData(gens, m, k, gamma=inp.gamma_conn or None)
    r = BracketContext.rothstein_on(conn).darboux_momenta()
    alow = [gens.gen(gens.odd[a]) for a in range(k)]
    aup = [gens.gen(gens.odd[k + a]) for a in range(k)]
    p = [gens.gen(gens.even[m + i]) for i in range(m)]
    half = Fraction(1, 2)
    zero = gens.zero()
    gam = conn.christoffel

    mu = zero
    for (i, a), rho in inp.rho.items():
        mu = mu - r[i] * rho * aup[a]
    for (a, b, g), cv in inp.c.items():
        mu = mu - half * cv * aup[a] * aup[b] * alow[g]
    mu2 = zero
    for (i, a), rho in inp.rho.items():
        mu2 = mu2 - p[i] * rho * aup[a]
    for a in range(k):
        for b in range(k):
            for g in range(k):
                t = zero
                for i in range(m):
                    ra = inp.rho.get((i, a), zero)
                    rb = inp.rho.get((i, b), zero)
                    t = t + ra * gam(i, b, g) - rb * gam(i, a, g)
                t = t - inp.c.get((a, b, g), zero)
                if not t.is_zero():
                    mu2 = mu2 + half * t * aup[a] * aup[b] * alow[g]
    psi_el = zero
    for (a, b, g) in combinations(range(k), 3):
        v = inp.psi.get((a, b, g))
        if v is not None and not v.is_zero():
            psi_el = psi_el + v * alow[a] * alow[b] * alow[g]
    return mu, mu2, psi_el


def upper_charge(inp):
    """(gamma in Darboux-momentum form, gamma in momentum/torsion form,
    phi) of a CourantInput, written out with a^* and a_* exchanged."""
    m, k = inp.m, inp.k
    gens = inp.gens
    conn = ConnectionData(gens, m, k, gamma=inp.gamma_conn or None)
    r = BracketContext.rothstein_on(conn).darboux_momenta()
    alow = [gens.gen(gens.odd[a]) for a in range(k)]
    aup = [gens.gen(gens.odd[k + a]) for a in range(k)]
    p = [gens.gen(gens.even[m + i]) for i in range(m)]
    half = Fraction(1, 2)
    zero = gens.zero()

    def gam(i, a, b):
        return conn.christoffel(i, a, b)

    gamma_el = zero
    for (i, a), rho in inp.rho_bar.items():
        gamma_el = gamma_el - r[i] * rho * alow[a]
    for (a, b, g), cv in inp.c_bar.items():
        gamma_el = gamma_el - half * cv * alow[a] * alow[b] * aup[g]
    gamma2 = zero
    for (i, a), rho in inp.rho_bar.items():
        gamma2 = gamma2 - p[i] * rho * alow[a]
    for a in range(k):
        for b in range(k):
            for g in range(k):
                t = zero
                for i in range(m):
                    ra = inp.rho_bar.get((i, a), zero)
                    rb = inp.rho_bar.get((i, b), zero)
                    t = t + rb * gam(i, g, a) - ra * gam(i, g, b)
                t = t - inp.c_bar.get((a, b, g), zero)
                if not t.is_zero():
                    gamma2 = gamma2 + half * t * alow[a] * alow[b] * aup[g]
    phi_el = zero
    for (a, b, g) in combinations(range(k), 3):
        v = inp.phi.get((a, b, g))
        if v is not None and not v.is_zero():
            phi_el = phi_el + v * aup[a] * aup[b] * aup[g]
    return gamma_el, gamma2, phi_el


def dirac_to_json(L):
    return {"n": L.n, "subspace": subspace_to_json(L.subspace)}


class FactorMismatch(Exception):
    pass


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
