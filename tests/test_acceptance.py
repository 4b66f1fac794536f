"""Acceptance gate: end-to-end property and oracle checks across all
engines, at the tolerances the package promises."""

import itertools
import random
import time
from fractions import Fraction

import pytest
import lie_oracles
from lie_oracles import jacobiator

from diracdeform import algebroid as alg
from diracdeform import courant as co
from diracdeform import courant_theory as ct
from diracdeform import dirac_linear as dl
from diracdeform import dirac_theory as dt
from diracdeform import ihs, ratlin
from diracdeform import multilinear as ml
from diracdeform.algebroid import (
    FormalSeries,
    ce_differential,
    cm_bracket,
    cohomology,
    gerstenhaber_bracket,
    grassmann_L,
    grassmann_R,
    iso_I,
    multiderivation_of_multimap,
    multivector_generators,
)
from diracdeform.brackets import BracketContext, master_residuals
from diracdeform.multilinear import (
    MultiMap,
    NonSymMultiMap,
    base_gens,
    nr_bracket,
    structure_constants_from_json,
)
from diracdeform.superalg import ConnectionData, parse, phase_generators

EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}

SO3 = MultiMap(2, 3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0),
                      (1, 2): (1, 0, 0)})
HEISENBERG = MultiMap(2, 3, {(0, 1): (0, 0, 1)})

_timings = {}


def rand_multimap(rng, n, dim, density=0.7):
    c = {}
    for idx in itertools.combinations(range(dim), n):
        if rng.random() < density:
            c[idx] = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
    return MultiMap(n, dim, c)


def rand_nonsym(rng, n, dim, density=0.5):
    c = {}
    for idx in itertools.product(range(dim), repeat=n):
        if rng.random() < density:
            c[idx] = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
    return NonSymMultiMap(n, dim, c)


def rand_base_poly(rng, gens, m, degree=2):
    out = gens.scalar(Fraction(rng.randint(-2, 2)))
    for _ in range(rng.randint(0, 2)):
        term = gens.scalar(Fraction(rng.randint(-2, 2)))
        for _ in range(rng.randint(1, degree)):
            term = term * gens.gen(gens.even[rng.randrange(m)])
        out = out + term
    return out


# ---------------------------------------------------------------------------
# 1. graded bracket laws on randomized homogeneous inputs
# ---------------------------------------------------------------------------

class TestBracketLaws:
    """Five brackets; for each, >= 200 randomized homogeneous inputs
    run through graded antisymmetry, the Leibniz rule of the adjoint
    action (Jacobi in Leibniz form), and, where a product exists, the
    product Leibniz rule."""

    TRIPLES = 70  # 3 homogeneous inputs each: 210 inputs per bracket

    def test_nr_laws(self):
        t0 = time.time()
        rng = random.Random(101)
        for _ in range(self.TRIPLES):
            na, nb, nc = (rng.randint(1, 3) for _ in range(3))
            f = rand_multimap(rng, na, 3)
            g = rand_multimap(rng, nb, 3)
            h = rand_multimap(rng, nc, 3)
            sign = (-1) ** ((na - 1) * (nb - 1))
            assert nr_bracket(f, g) == (-sign) * nr_bracket(g, f)
            lhs = nr_bracket(f, nr_bracket(g, h))
            rhs = nr_bracket(nr_bracket(f, g), h) \
                + sign * nr_bracket(g, nr_bracket(f, h))
            assert lhs == rhs
        _timings["nr"] = time.time() - t0

    def test_gerstenhaber_laws(self):
        t0 = time.time()
        rng = random.Random(102)
        for _ in range(self.TRIPLES):
            na, nb, nc = (rng.randint(1, 2) for _ in range(3))
            f = rand_nonsym(rng, na, 3)
            g = rand_nonsym(rng, nb, 3)
            h = rand_nonsym(rng, nc, 3)
            sign = (-1) ** ((na - 1) * (nb - 1))
            assert gerstenhaber_bracket(f, g) == \
                (-sign) * gerstenhaber_bracket(g, f)
            lhs = gerstenhaber_bracket(f, gerstenhaber_bracket(g, h))
            rhs = gerstenhaber_bracket(gerstenhaber_bracket(f, g), h) \
                + sign * gerstenhaber_bracket(g, gerstenhaber_bracket(f, h))
            assert lhs == rhs
        _timings["gerstenhaber"] = time.time() - t0

    def test_cm_point_laws(self):
        t0 = time.time()
        rng = random.Random(103)
        gens = base_gens(0)
        for _ in range(self.TRIPLES):
            na, nb, nc = (rng.randint(1, 3) for _ in range(3))
            D1 = multiderivation_of_multimap(rand_multimap(rng, na, 3), gens)
            D2 = multiderivation_of_multimap(rand_multimap(rng, nb, 3), gens)
            D3 = multiderivation_of_multimap(rand_multimap(rng, nc, 3), gens)
            p, q = D1.degree, D2.degree
            sign = (-1) ** (p * q)
            assert cm_bracket(D1, D2) == (-sign) * cm_bracket(D2, D1)
            lhs = cm_bracket(D1, cm_bracket(D2, D3))
            rhs = cm_bracket(cm_bracket(D1, D2), D3) \
                + sign * cm_bracket(D2, cm_bracket(D1, D3))
            assert lhs == rhs
        _timings["cm"] = time.time() - t0

    def _rand_multivector(self, rng, ctx, odd_deg):
        gens = ctx.gens
        out = gens.zero()
        for _ in range(rng.randint(1, 2)):
            term = rand_base_poly(rng, gens, len(gens.even))
            for o in sorted(rng.sample(range(len(gens.odd)), odd_deg)):
                term = term * gens.gen(gens.odd[o])
            out = out + term
        return out

    def test_schouten_laws(self):
        t0 = time.time()
        rng = random.Random(104)
        ctx = BracketContext.schouten_on(["x1", "x2", "x3"])
        for _ in range(self.TRIPLES):
            p, q, r = (rng.randint(1, 3) for _ in range(3))
            P = self._rand_multivector(rng, ctx, p)
            Q = self._rand_multivector(rng, ctx, q)
            R = self._rand_multivector(rng, ctx, r)
            sign = (-1) ** ((p - 1) * (q - 1))
            assert ctx.schouten(P, Q) == -sign * ctx.schouten(Q, P)
            assert ctx.schouten(P, Q * R) == \
                ctx.schouten(P, Q) * R \
                + ((-1) ** ((p - 1) * q)) * Q * ctx.schouten(P, R)
            lhs = ctx.schouten(P, ctx.schouten(Q, R))
            rhs = ctx.schouten(ctx.schouten(P, Q), R) \
                + sign * ctx.schouten(Q, ctx.schouten(P, R))
            assert lhs == rhs
        _timings["schouten"] = time.time() - t0

    def _rand_phase(self, rng, gens, odd_deg):
        out = gens.zero()
        for _ in range(rng.randint(1, 2)):
            term = rand_base_poly(rng, gens, 2)
            if rng.random() < 0.5:
                term = term * gens.gen(gens.even[2 + rng.randrange(2)])
            for o in sorted(rng.sample(range(4), odd_deg)):
                term = term * gens.gen(gens.odd[o])
            out = out + term
        return out

    def test_rothstein_laws(self):
        t0 = time.time()
        rng = random.Random(105)
        gens = phase_generators(2, 2)
        for trial in range(self.TRIPLES):
            gamma = {}
            for i in range(2):
                for a in range(2):
                    for b in range(2):
                        gamma[(i, a, b)] = rand_base_poly(rng, gens, 2)
            gamma = {key: v for key, v in gamma.items() if not v.is_zero()}
            ctx = BracketContext.rothstein_on(
                ConnectionData(gens, 2, 2, gamma))
            p, q, r = (rng.randint(0, 3) for _ in range(3))
            a = self._rand_phase(rng, gens, p)
            b = self._rand_phase(rng, gens, q)
            c = self._rand_phase(rng, gens, r)
            sign = (-1) ** (p * q)
            assert ctx.rothstein(a, b) == -sign * ctx.rothstein(b, a)
            assert ctx.rothstein(a, b * c) == \
                ctx.rothstein(a, b) * c + sign * b * ctx.rothstein(a, c)
            lhs = ctx.rothstein(a, ctx.rothstein(b, c))
            rhs = ctx.rothstein(ctx.rothstein(a, b), c) \
                + sign * ctx.rothstein(b, ctx.rothstein(a, c))
            assert lhs == rhs
        _timings["rothstein"] = time.time() - t0

    def test_total_runtime_budget(self):
        assert set(_timings) >= {"nr", "gerstenhaber", "cm", "schouten",
                                 "rothstein"}
        assert sum(_timings.values()) < 60.0


# ---------------------------------------------------------------------------
# 2. square-zero <=> brute-force Jacobi
# ---------------------------------------------------------------------------

class TestJacobiEquivalence:
    def _conjugate(self, mu, N):
        """mu'(x, y) = T^{-1} mu(Tx, Ty) for unipotent T = I + N."""
        dim = mu.dim
        T = [[Fraction(1 if i == j else 0) + Fraction(N[i][j])
              for j in range(dim)] for i in range(dim)]
        # inverse of I + N for strictly upper triangular N (dim 3)
        N2 = ratlin.mat_mul(ratlin.mat(N), ratlin.mat(N))
        Ti = [[Fraction(1 if i == j else 0) - Fraction(N[i][j]) + N2[i][j]
               for j in range(dim)] for i in range(dim)]
        c = {}
        for a in range(dim):
            for b in range(a + 1, dim):
                val = [Fraction(0)] * dim
                for p in range(dim):
                    for q in range(dim):
                        coeff = T[p][a] * T[q][b]
                        if coeff == 0 or p == q:
                            continue
                        inner = mu.eval_indices((p, q))
                        for t in range(dim):
                            val[t] += coeff * inner[t]
                out = [sum(Ti[t][s] * val[s] for s in range(dim))
                       for t in range(dim)]
                if any(out):
                    c[(a, b)] = tuple(out)
        return MultiMap(2, dim, c)

    def test_equivalence_both_directions(self):
        rng = random.Random(201)
        lie_seen = nonlie_seen = 0
        for trial in range(100):
            if trial % 3 == 0:
                base = rng.choice([SO3, HEISENBERG, MultiMap.zero(2, 3)])
                N = [[0, rng.randint(-2, 2), rng.randint(-2, 2)],
                     [0, 0, rng.randint(-2, 2)], [0, 0, 0]]
                mu = self._conjugate(Fraction(rng.randint(1, 3)) * base, N)
            else:
                mu = rand_multimap(rng, 2, 3)
            brute = all(
                not any(jacobiator(mu, x, y, z))
                for x, y, z in itertools.product(range(3), repeat=3))
            square = nr_bracket(mu, mu).is_zero()
            assert brute == square
            lie_seen += square
            nonlie_seen += not square
        assert lie_seen >= 10 and nonlie_seen >= 10


# ---------------------------------------------------------------------------
# 3. rigidity via exact rank
# ---------------------------------------------------------------------------

class TestRigidity:
    def test_so3_second_cohomology_trivial(self):
        t0 = time.time()
        hdim, reps = cohomology(SO3, 2)
        assert hdim == 0
        assert reps == []
        # every first-order cocycle is a coboundary
        M2 = lie_oracles.delta_matrix(SO3, 2)
        M1 = lie_oracles.delta_matrix(SO3, 1)
        for v in ratlin.kernel_basis(M2).basis:
            status, _ = ratlin.solve(M1, list(v))
            assert status == "SOLUTION"
        assert alg.rigidity_check(SO3) == ("RIGID", 0)
        assert time.time() - t0 < 5.0


# ---------------------------------------------------------------------------
# 4. obstruction cocycles are closed at the first undetermined order
# ---------------------------------------------------------------------------

class TestObstructionClosedness:
    def _random_cocycle(self, rng, mu0):
        M2 = lie_oracles.delta_matrix(mu0, 2)
        ker = ratlin.kernel_basis(M2)
        dom = ml._cochain_basis(2, mu0.dim)
        vec = [Fraction(0)] * len(dom)
        for b in ker.basis:
            c = Fraction(rng.randint(-2, 2))
            vec = [x + c * y for x, y in zip(vec, b)]
        return lie_oracles.from_vector(vec, 2, mu0.dim, dom)

    def test_lie_side(self):
        rng = random.Random(401)
        checked = 0
        while checked < 25:
            mu0 = rng.choice([SO3, HEISENBERG])
            prefix = [mu0, self._random_cocycle(rng, mu0)]
            if rng.random() < 0.4:
                cert = alg.extend_one_order(prefix)
                if not cert.extends:
                    continue
                prefix.append(cert.solution)
            cert = alg.extend_one_order(prefix)
            assert cert.verify()
            assert ce_differential(mu0, cert.cocycle).is_zero()
            checked += 1

    def test_dirac_side(self):
        rng = random.Random(402)
        models = [co.build_theta(ct.so3_double()),
                  co.build_theta(ct.lie_bialgebra({}, EPS3, 3)),
                  co.build_theta(ct.lie_bialgebra(EPS3, {}, 3))]
        checked = 0
        while checked < 25:
            th = rng.choice(models)
            om = th.zero()
            for a in range(3):
                for b in range(a + 1, 3):
                    om = om + Fraction(rng.randint(-2, 2)) \
                        * th.upper(a) * th.upper(b)
            if not co.d_L(th, om).is_zero():
                continue
            prefix = [om]
            if rng.random() < 0.4:
                cert = ct.deform_extend_dirac(th, prefix)
                if not cert.extends:
                    continue
                prefix.append(cert.solution)
            cert = ct.deform_extend_dirac(th, prefix)
            assert co.d_L(th, cert.cocycle).is_zero()
            checked += 1


# ---------------------------------------------------------------------------
# 5. linear Dirac structures
# ---------------------------------------------------------------------------

def rand_antisym(rng, d):
    M = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = Fraction(rng.randint(-3, 3))
            M[i][j] = v
            M[j][i] = -v
    return M


def rand_dirac(rng, n):
    rows = []
    for _ in range(rng.randint(0, n)):
        rows.append([Fraction(rng.randint(-2, 2)) for _ in range(n)])
    R = ratlin.Subspace(n, rows)
    return dt.from_R_Omega(R, rand_antisym(rng, R.dim))


class TestLinearDirac:
    def test_minkowski_isotropic_dimension(self):
        G = [[Fraction(x) for x in row]
             for row in [[1, 0, 0, 0], [0, -1, 0, 0],
                         [0, 0, -1, 0], [0, 0, 0, -1]]]
        assert dt.max_isotropic_dimension(G) == 1
        W = ratlin.Subspace(4, [[Fraction(1), Fraction(1),
                                 Fraction(0), Fraction(0)]])
        assert dt.extend_isotropic(G, W) == W

    def test_hyperbolic_completion_table(self):
        rng = random.Random(501)
        n = 3
        G = dt.PairedSpace(n).pairing_matrix()
        for _ in range(20):
            L = rand_dirac(rng, n)
            k = rng.randint(0, n)
            W = ratlin.Subspace(2 * n,
                                [list(v) for v in L.subspace.basis[:k]])
            vs, U = dt.hyperbolic_completion(G, W)
            for i, vi in enumerate(vs):
                for j, vj in enumerate(vs):
                    assert dt._form_value(G, vi, vj) == 0
                for j, wj in enumerate(W.basis):
                    assert dt._form_value(G, list(wj), vi) == \
                        (1 if i == j else 0)
                for u in U.basis:
                    assert dt._form_value(G, list(u), vi) == 0

    def test_represent_round_trips(self):
        rng = random.Random(502)
        for _ in range(100):
            n = rng.randint(1, 4)
            L = rand_dirac(rng, n)
            rep = dt.represent(L)
            assert dt.from_R_Omega(rep["R"], rep["Omega"]) == L
            assert dt.from_K_pi(rep["K"], rep["corange"], rep["pi"]) == L

    def test_functoriality(self):
        rng = random.Random(503)
        for _ in range(25):
            n1, n2, n3 = (rng.randint(1, 3) for _ in range(3))
            phi = [[Fraction(rng.randint(-2, 2)) for _ in range(n1)]
                   for _ in range(n2)]
            psi = [[Fraction(rng.randint(-2, 2)) for _ in range(n2)]
                   for _ in range(n3)]
            L = rand_dirac(rng, n1)
            comp = ratlin.mat_mul(psi, phi)
            assert dt.forward_map(psi, dt.forward_map(phi, L)) == \
                dt.forward_map(comp, L)
            M = rand_dirac(rng, n3)
            assert dt.backward_map(phi, dt.backward_map(psi, M)) == \
                dt.backward_map(comp, M)

    def test_injective_surjective_identities(self):
        rng = random.Random(504)
        inj = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)],
               [Fraction(1), Fraction(1)]]
        sur = [[Fraction(1), Fraction(0), Fraction(1)],
               [Fraction(0), Fraction(1), Fraction(0)]]
        for _ in range(25):
            L2 = rand_dirac(rng, 2)
            assert dt.backward_map(inj, dt.forward_map(inj, L2)) == L2
            M2 = rand_dirac(rng, 2)
            assert dt.forward_map(sur, dt.backward_map(sur, M2)) == M2


# ---------------------------------------------------------------------------
# 6. super-Darboux residual table
# ---------------------------------------------------------------------------

class TestSuperDarboux:
    def test_residuals_zero(self):
        t0 = time.time()
        m = k = 2
        gens = phase_generators(m, k)
        for seed in range(20):
            rng = random.Random(600 + seed)
            gamma = {}
            for i in range(m):
                for a in range(k):
                    for b in range(k):
                        gamma[(i, a, b)] = rand_base_poly(rng, gens, m, 2)
            gamma = {key: v for key, v in gamma.items() if not v.is_zero()}
            ctx = BracketContext.rothstein_on(
                ConnectionData(gens, m, k, gamma))
            r = ctx.darboux_momenta()
            g = gens.gen
            for i in range(m):
                for j in range(m):
                    assert ctx.rothstein(g(gens.even[i]), r[j]) == \
                        gens.scalar(1 if i == j else 0)
                    assert ctx.rothstein(r[i], r[j]).is_zero()
                for a in range(k):
                    assert ctx.rothstein(r[i], g(gens.odd[a])).is_zero()
                    assert ctx.rothstein(r[i], g(gens.odd[k + a])).is_zero()
            for a in range(k):
                for b in range(k):
                    assert ctx.rothstein(g(gens.odd[k + a]),
                                         g(gens.odd[b])) == \
                        gens.scalar(1 if a == b else 0)
        assert time.time() - t0 < 30.0


# ---------------------------------------------------------------------------
# 7. derived brackets on the tangent-plus-cotangent model
# ---------------------------------------------------------------------------

class TestDerivedBracketFidelity:
    def test_section_pairs(self):
        th = co.build_theta(ct.standard_courant(3))
        g = th.gens

        def vec(fs):
            return sum((f * th.lower(a) for a, f in enumerate(fs)),
                       th.zero())

        def form(fs):
            return sum((f * th.upper(a) for a, f in enumerate(fs)),
                       th.zero())

        def d(f, i):
            return f.partial_even(g.even[i])

        def oracle(Xc, xic, Yc, etac):
            z = g.zero()
            brk = [sum((Xc[i] * d(Yc[a], i) - Yc[i] * d(Xc[a], i)
                        for i in range(3)), z) for a in range(3)]
            lie = [sum((Xc[i] * d(etac[a], i) + etac[i] * d(Xc[i], a)
                        for i in range(3)), z) for a in range(3)]
            iyd = [sum((Yc[i] * (d(xic[a], i) - d(xic[i], a))
                        for i in range(3)), z) for a in range(3)]
            return vec(brk) + form([lie[a] - iyd[a] for a in range(3)])

        rng = random.Random(701)
        zero3 = [g.zero()] * 3

        def components(rng):
            return [rand_base_poly(rng, g, 3, 2) for _ in range(3)]

        pairs = []
        # generating family: single-frame sections times monomials
        monos = [g.one()] + [g.gen(g.even[i]) for i in range(3)] \
            + [g.gen(g.even[0]) * g.gen(g.even[1])]
        family = []
        for f in monos:
            for a in range(3):
                xc = list(zero3)
                xc[a] = f
                family.append((xc, list(zero3)))
                family.append((list(zero3), xc))
        for i in range(30):
            pairs.append((family[i % len(family)],
                          family[(7 * i + 3) % len(family)]))
        for _ in range(30):
            pairs.append(((components(rng), components(rng)),
                          (components(rng), components(rng))))
        assert len(pairs) >= 50
        for (Xc, xic), (Yc, etac) in pairs:
            e1 = vec(Xc) + form(xic)
            e2 = vec(Yc) + form(etac)
            assert ct.courant_bracket(th, e1, e2) == \
                oracle(Xc, xic, Yc, etac)


# ---------------------------------------------------------------------------
# 8. master equation for the stock models
# ---------------------------------------------------------------------------

class TestMasterEquation:
    def test_square_zero_with_components(self):
        bialg = ct.lie_bialgebra(EPS3, {}, 3)
        assert co.verify_courant(bialg)["ok"]
        for inp in (ct.standard_courant(3),
                    ct.quadratic_lie_algebra(EPS3, 3),
                    ct.so3_double(),
                    bialg):
            th = co.build_theta(inp)
            res = master_residuals(th.ctx, th.theta)
            assert res["total"].is_zero()
            for comp in res["components"].values():
                assert comp.is_zero()


# ---------------------------------------------------------------------------
# 9. deformation equation vs exterior-derivative oracle
# ---------------------------------------------------------------------------

class TestDeformationEquation:
    def test_residual_iff_closed(self):
        th = co.build_theta(ct.standard_courant(3))
        g = th.gens

        def de_rham(om):
            out = th.zero()
            for i in range(3):
                out = out + th.upper(i) * om.partial_even(g.even[i])
            return out

        rng = random.Random(901)
        closed_seen = open_seen = 0
        for trial in range(20):
            om = th.zero()
            for a in range(3):
                for b in range(a + 1, 3):
                    f = rand_base_poly(rng, g, 3, 2)
                    if trial % 4 == 0:
                        f = g.scalar(Fraction(rng.randint(-2, 2)))
                    om = om + f * th.upper(a) * th.upper(b)
            series = FormalSeries(3, [th.zero(), om], th.zero())
            res = ct.mc_residual_dirac(th, series)
            closed = de_rham(om).is_zero()
            assert res.is_zero() == closed
            closed_seen += closed
            open_seen += not closed
        assert closed_seen and open_seen


# ---------------------------------------------------------------------------
# 10. universal identity for arbitrary two-forms
# ---------------------------------------------------------------------------

class TestUniversalIdentity:
    def test_fifty_random_forms(self):
        rng = random.Random(1001)
        constant_models = [co.build_theta(ct.so3_double()),
                           co.build_theta(ct.lie_bialgebra({}, EPS3, 3))]
        poly_models = [co.build_theta(ct.standard_courant(2)),
                       co.build_theta(ct.standard_courant(3))]
        non_solutions = 0
        for trial in range(50):
            if trial < 25:
                th = constant_models[trial % 2]
                m = 0
            else:
                th = poly_models[trial % 2]
                m = th.input.m
            om = th.zero()
            k = th.input.k
            for a in range(k):
                for b in range(a + 1, k):
                    if m:
                        f = rand_base_poly(rng, th.gens, m, 2)
                    else:
                        f = th.gens.scalar(Fraction(rng.randint(-2, 2)))
                    om = om + f * th.upper(a) * th.upper(b)
            mc = co.mc_residual_one(th, {1: om}, 1) \
                + co.mc_residual_one(th, {1: om}, 2) \
                + co.mc_residual_one(th, {1: om}, 3)
            if not mc.is_zero():
                non_solutions += 1
            assert ct.universal_identity_check(th, om).is_zero()
        assert non_solutions >= 10  # omega is not required to solve MC


# ---------------------------------------------------------------------------
# 11. isomorphism transport
# ---------------------------------------------------------------------------

def rand_linear_multivector(rng, m, k, kdeg):
    gens = multivector_generators(m, k)
    out = gens.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-2, 2))
        xpow = {}
        for _ in range(rng.randint(0, 1)):
            xpow[f"x{rng.randint(1, m)}"] = 1
        if rng.random() < 0.5 and 0 <= kdeg - 1 <= k:
            gam = sorted(rng.sample(range(k), kdeg - 1))
            odd = [f"xh{rng.randint(1, m)}"] + \
                [f"vh{a + 1}" for a in gam]
            out = out + gens.monomial(coeff, xpow, odd)
        elif kdeg <= k:
            alpha = sorted(rng.sample(range(k), kdeg))
            xpow[f"v{rng.randint(1, k)}"] = 1
            out = out + gens.monomial(coeff, xpow,
                                      [f"vh{a + 1}" for a in alpha])
    return out


def rand_multiderivation(rng, gens, m, k, degree):
    frame = {}
    for idx in itertools.combinations(range(k), degree + 1):
        frame[idx] = tuple(rand_base_poly(rng, gens, m, 1)
                           for _ in range(k))
    symbol = {}
    if degree >= 0:
        for idx in itertools.combinations(range(k), degree):
            symbol[idx] = tuple(rand_base_poly(rng, gens, m, 1)
                                for _ in range(m))
    return alg.MultiDerivation(gens, m, k, degree, frame, symbol)


class TestIsomorphismTransport:
    def test_schouten_to_cm(self):
        m, k = 2, 2
        gens = multivector_generators(m, k)
        ctx = BracketContext(
            "SCHOUTEN", gens, conjugate={i: i for i in range(m + k)})
        rng = random.Random(1101)
        checked = 0
        while checked < 50:
            p = rng.randint(0, 2)
            q = rng.randint(1 if p == 0 else 0, 2)
            P = rand_linear_multivector(rng, m, k, p)
            Q = rand_linear_multivector(rng, m, k, q)
            if P.is_zero() or Q.is_zero():
                continue
            PQ = ctx.schouten(P, Q)
            sign = -1 if (p - 1) * (q - 1) % 2 else 1
            rhs = sign * cm_bracket(iso_I(P, m, k), iso_I(Q, m, k))
            if PQ.is_zero():
                assert rhs.is_zero()
            else:
                assert iso_I(PQ, m, k) == rhs
            checked += 1

    def test_grassmann_round_trip_and_commutator(self):
        m, k = 2, 2
        gens = base_gens(m)
        rng = random.Random(1102)
        for _ in range(50):
            d1 = rng.randint(-1, 2)
            d2 = rng.randint(0 if d1 < 0 else -1, 2)
            D1 = rand_multiderivation(rng, gens, m, k, d1)
            D2 = rand_multiderivation(rng, gens, m, k, d2)
            L1 = grassmann_L(D1)
            assert grassmann_R(L1, gens) == D1
            lhs = L1.commutator(grassmann_L(D2))
            rhs = grassmann_L(cm_bracket(D1, D2))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# 12. IHS integration layer
# ---------------------------------------------------------------------------

class TestNumericSuite:
    def test_harmonic_oscillator_drift(self):
        sys_ = ihs.IHSystem(dt.canonical_symplectic(1),
                            parse(base_gens(2), "1/2 x1^2 + 1/2 x2^2"))
        traj = sys_.integrate([1.0, 0.0], 1000, h=1e-3)
        assert traj.max_drift < 1e-6
