import itertools
import random
from fractions import Fraction

import pytest
import lie_oracles
from hypothesis import given, settings, strategies as st

from diracdeform import courant as co
from diracdeform import lie_deform as ld
from diracdeform import multilinear as ml
from diracdeform import ratlin
from diracdeform.algebroid import (
    FormalSeries,
    NotInvertible,
    apply_equivalence,
    ce_differential,
    cohomology,
    extend_one_order,
    gerstenhaber_normalize,
    identity_map,
    invert_series,
    iso_I,
    iso_I_inv,
    linear_poisson_deform,
    mc_residual_lie,
    multiderivation_of_multimap,
    multimap_of_multiderivation,
    poisson_apply_equivalence,
    poisson_context,
    rigidity_check,
    series_exponential,
    series_logarithm,
)
from diracdeform.lie_deform import (
    ObstructionCertificate,
    Order0NotLie,
    PreconditionMC,
    extend_series,
)
from diracdeform.multilinear import MultiMap, nr_bracket
from ratlin_oracles import rank
from diracdeform.superalg import parse


def so3():
    return MultiMap(2, 3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0),
                           (1, 2): (1, 0, 0)})


def heisenberg():
    return MultiMap(2, 3, {(0, 1): (0, 0, 1)})


def aff1():
    return MultiMap(2, 2, {(0, 1): (0, 1)})


small_frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def frac_series(order=4):
    return st.lists(small_frac, min_size=order + 1, max_size=order + 1).map(
        lambda cs: FormalSeries(order, cs, Fraction(0)))


def fmul(a, b):
    return a * b


class TestFormalSeries:
    @given(frac_series(), frac_series(), frac_series())
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a.convolve(b, fmul) == b.convolve(a, fmul)
        assert a.convolve(b.convolve(c, fmul), fmul) == \
            a.convolve(b, fmul).convolve(c, fmul)
        assert a.convolve(b + c, fmul) == \
            a.convolve(b, fmul) + a.convolve(c, fmul)

    @given(frac_series())
    @settings(max_examples=40, deadline=None)
    def test_exp_ln_inverse(self, a):
        # force vanishing constant term
        a = FormalSeries(a.order, [Fraction(0)] + a.coeffs[1:], Fraction(0))
        e = series_exponential(a, fmul, Fraction(1))
        assert series_logarithm(e, fmul, Fraction(1)) == a

    @given(frac_series())
    @settings(max_examples=40, deadline=None)
    def test_ln_exp_inverse(self, a):
        u = FormalSeries(a.order, [Fraction(1)] + a.coeffs[1:], Fraction(0))
        l = series_logarithm(u, fmul, Fraction(1))
        assert series_exponential(l, fmul, Fraction(1)) == u

    def test_exp_requires_positive_order(self):
        a = FormalSeries(3, [Fraction(1)], Fraction(0))
        with pytest.raises(ValueError):
            series_exponential(a, fmul, Fraction(1))

    def test_shift(self):
        a = FormalSeries(3, [1, 2, 3, 4], Fraction(0))
        assert a.shift(2).coeffs == [Fraction(0), Fraction(0), 1, 2]


class TestMCResidual:
    def test_constant_series(self):
        mu = so3()
        s = FormalSeries(4, [mu], MultiMap.zero(2, 3))
        res = mc_residual_lie(s)
        assert res.is_zero()

    def test_first_order_is_minus_two_delta(self):
        mu0 = so3()
        mu1 = MultiMap(2, 3, {(0, 1): (1, 0, 0)})
        s = FormalSeries(2, [mu0, mu1], MultiMap.zero(2, 3))
        res = mc_residual_lie(s)
        d = ce_differential(mu0, mu1)
        assert res[1] == Fraction(-2) * d

    def test_abelian_base(self):
        mu0 = MultiMap.zero(2, 3)
        mu1 = MultiMap(2, 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)})
        s = FormalSeries(3, [mu0, mu1], MultiMap.zero(2, 3))
        res = mc_residual_lie(s)
        assert res[1].is_zero()
        assert res[2] == nr_bracket(mu1, mu1)

    def test_order0_not_lie(self):
        bad = MultiMap(2, 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)})
        s = FormalSeries(2, [bad], MultiMap.zero(2, 3))
        with pytest.raises(Order0NotLie):
            mc_residual_lie(s)


def random_cocycle(rng, mu0, k=2):
    """Random element of ker(delta^k)."""
    dim = mu0.dim
    M = lie_oracles.delta_matrix(mu0, k)
    ker = ratlin.kernel_basis(M)
    dom = ml._cochain_basis(k, dim)
    acc = [Fraction(0)] * len(dom)
    for v in ker.basis:
        c = Fraction(rng.randint(-2, 2))
        acc = [a + c * x for a, x in zip(acc, v)]
    return lie_oracles.from_vector(acc, k, dim, dom)


class TestExtend:
    def test_first_order_trivial(self):
        cert = extend_one_order([so3()])
        assert cert.order == 1
        assert cert.extends
        assert cert.cocycle.is_zero()
        assert cert.solution.is_zero()
        assert cert.verify()

    def test_so3_extends_to_default_order(self):
        rng = random.Random(0)
        mu0 = so3()
        mu1 = random_cocycle(rng, mu0)
        coeffs, certs = extend_series([mu0, mu1])
        assert len(coeffs) == ld.DEFAULT_ORDER + 1
        assert all(c.extends for c in certs)
        s = FormalSeries(ld.DEFAULT_ORDER, coeffs, MultiMap.zero(2, 3))
        assert mc_residual_lie(s).is_zero()

    def test_heisenberg_nonexact_cocycle(self):
        mu0 = heisenberg()
        _, reps = cohomology(mu0, 2)
        mu1 = reps[0]
        coeffs, certs = extend_series([mu0, mu1], order=4)
        for cert in certs:
            assert cert.verify()
        if not certs[-1].extends:
            # brute-force confirmation: no mu_k solves delta mu_k = R_k
            cert = certs[-1]
            M = lie_oracles.delta_matrix(mu0, 2)
            b = lie_oracles.to_vector(cert.cocycle, ml._cochain_basis(3, 3))
            status, _ = ratlin.solve(M, b)
            assert status == "INCONSISTENT"
        else:
            s = FormalSeries(4, coeffs, MultiMap.zero(2, 3))
            assert mc_residual_lie(s).is_zero()

    def test_precondition_mc(self):
        mu0 = so3()
        mu1 = MultiMap(2, 3, {(0, 1): (1, 0, 0)})  # not a cocycle
        assert not ce_differential(mu0, mu1).is_zero()
        with pytest.raises(PreconditionMC):
            extend_one_order([mu0, mu1, MultiMap.zero(2, 3)])

    def test_obstruction_closedness_random_prefixes(self):
        # delta(sum [mu_i, mu_{k-i}]) = 0 for valid prefixes
        for seed in range(10):
            rng = random.Random(seed)
            mu0 = so3() if seed % 2 else heisenberg()
            mu1 = random_cocycle(rng, mu0)
            cert = extend_one_order([mu0, mu1])
            assert ce_differential(mu0, cert.cocycle).is_zero()
            if cert.extends:
                cert2 = extend_one_order([mu0, mu1, cert.solution])
                assert ce_differential(mu0, cert2.cocycle).is_zero()

    def test_certificate_exclusivity(self):
        d = extend_one_order([so3()]).differential
        z = MultiMap.zero(3, 3)
        with pytest.raises(ValueError):
            ObstructionCertificate(d, 1, z)
        with pytest.raises(ValueError):
            ObstructionCertificate(d, 1, z, solution=MultiMap.zero(2, 3),
                                   witness=[])


class TestEquivalence:
    def test_identity(self):
        mu0 = so3()
        s = FormalSeries(3, [mu0], MultiMap.zero(2, 3))
        phi = FormalSeries(3, [identity_map(3)], MultiMap.zero(1, 3))
        assert apply_equivalence(phi, s) == s

    def test_first_order_relation(self):
        mu0 = so3()
        rng = random.Random(5)
        phi1 = MultiMap(1, 3, {(i,): tuple(Fraction(rng.randint(-2, 2))
                                           for _ in range(3))
                               for i in range(3)})
        phi = FormalSeries(2, [identity_map(3), phi1], MultiMap.zero(1, 3))
        s = FormalSeries(2, [mu0], MultiMap.zero(2, 3))
        out = apply_equivalence(phi, s)
        diff = out[1] - s[1]
        assert diff == nr_bracket(mu0, phi1)
        assert diff == ce_differential(mu0, phi1)

    def test_not_invertible(self):
        phi = FormalSeries(2, [MultiMap.zero(1, 3)], MultiMap.zero(1, 3))
        with pytest.raises(NotInvertible):
            invert_series(phi, 3)

    def test_inverse_series(self):
        rng = random.Random(9)
        phi1 = MultiMap(1, 2, {(i,): (Fraction(rng.randint(-2, 2)),
                                      Fraction(rng.randint(-2, 2)))
                               for i in range(2)})
        phi = FormalSeries(3, [identity_map(2), phi1], MultiMap.zero(1, 2))
        inv = invert_series(phi, 2)
        comp = phi.convolve(inv, lie_oracles.compose_linear)
        assert comp[0] == identity_map(2)
        for k in range(1, 4):
            assert comp[k].is_zero()

    def test_equivalence_preserves_lie(self):
        mu0 = so3()
        rng = random.Random(2)
        mu1 = random_cocycle(rng, mu0)
        coeffs, _ = extend_series([mu0, mu1], order=3)
        s = FormalSeries(3, coeffs, MultiMap.zero(2, 3))
        phi1 = MultiMap(1, 3, {(0,): (0, 1, 0)})
        phi = FormalSeries(3, [identity_map(3), phi1], MultiMap.zero(1, 3))
        out = apply_equivalence(phi, s)
        assert mc_residual_lie(out).is_zero()

    def test_gerstenhaber_normalization(self):
        mu0 = so3()
        rng = random.Random(3)
        phi_n = MultiMap(1, 3, {(i,): tuple(Fraction(rng.randint(-2, 2))
                                            for _ in range(3))
                                for i in range(3)})
        mu1 = ce_differential(mu0, phi_n)
        s = FormalSeries(3, [mu0, mu1], MultiMap.zero(2, 3))
        result = gerstenhaber_normalize(s, 1)
        assert result is not None
        _, normalized = result
        assert normalized[0] == mu0
        assert normalized[1].is_zero()

    def test_normalization_fails_on_nonexact(self):
        mu0 = heisenberg()
        _, reps = cohomology(mu0, 2)
        s = FormalSeries(2, [mu0, reps[0]], MultiMap.zero(2, 3))
        assert gerstenhaber_normalize(s, 1) is None


class TestRigidity:
    def test_so3(self):
        verdict, h2 = rigidity_check(so3())
        assert verdict == "RIGID"
        assert h2 == 0

    def test_abelian(self):
        verdict, h2 = rigidity_check(MultiMap.zero(2, 2))
        assert verdict == "NOT_RIGID"
        assert h2 == 2

    def test_aff1(self):
        verdict, h2 = rigidity_check(aff1())
        assert (verdict == "RIGID") == (h2 == 0)
        # independent rank oracle
        M1 = lie_oracles.delta_matrix(aff1(), 1)
        M2 = lie_oracles.delta_matrix(aff1(), 2)
        ndom = len(ml._cochain_basis(2, 2))
        assert h2 == ndom - rank(M2) - rank(M1)


def lie_to_poisson(mu):
    """Mirror a 2-ary MultiMap as a fiber-linear bivector."""
    return iso_I_inv(multiderivation_of_multimap(mu))


FIL4 = MultiMap(2, 4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
SO3_PLUS_R = MultiMap(2, 4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, -1, 0, 0),
                             (1, 2): (1, 0, 0, 0)})


def exact_poisson_prefix(mu0, seed):
    """[pi_0, [pi_0, X]] for a random fiber-weight-0 vector field X."""
    k = mu0.dim
    gens, ctx = poisson_context(k)
    rng = random.Random(seed)
    X = gens.zero()
    for a in range(k):
        for b in range(k):
            X = X + Fraction(rng.randint(-2, 2)) \
                * gens.monomial(1, {f"v{b + 1}": 1}, [f"vh{a + 1}"])
    pi0 = lie_to_poisson(mu0)
    return [pi0, ctx.schouten(pi0, X)]


class TestLinearPoisson:
    @pytest.mark.parametrize("mu0", [FIL4, SO3_PLUS_R])
    def test_extension_is_poisson_at_every_order(self, mu0):
        k = mu0.dim
        gens, ctx = poisson_context(k)
        coeffs, certs = linear_poisson_deform(exact_poisson_prefix(mu0, 0),
                                              k, order=3)
        assert len(coeffs) == 4 and all(c.extends for c in certs)
        for n in range(4):
            acc = gens.zero()
            for i in range(n + 1):
                acc = acc + ctx.schouten(coeffs[i], coeffs[n - i])
            assert acc.is_zero(), f"[pi_t, pi_t] != 0 at order {n}"

    def test_abelian_base(self):
        k = 3
        gens, ctx = poisson_context(k)
        pi0 = gens.zero()
        pi1 = lie_to_poisson(so3())
        coeffs, certs = linear_poisson_deform([pi0, pi1], k, order=3)
        assert all(c.extends for c in certs)
        # full series is Poisson
        total = gens.zero()
        for c in coeffs:
            total = total + c
        # orders mix, so check MC per order instead
        for n in range(2, 4):
            acc = gens.zero()
            for i in range(n + 1):
                if i < len(coeffs) and n - i < len(coeffs):
                    acc = acc + ctx.schouten(coeffs[i], coeffs[n - i])
            assert acc.is_zero()

    def test_so3_mirror_extends(self):
        k = 3
        pi0 = lie_to_poisson(so3())
        rng = random.Random(1)
        mu1 = random_cocycle(rng, so3())
        pi1 = lie_to_poisson(mu1)
        coeffs, certs = linear_poisson_deform([pi0, pi1], k, order=4)
        assert all(c.extends for c in certs)

    def test_not_homogeneous(self):
        from diracdeform.superalg import NotHomogeneous
        k = 2
        gens, _ = poisson_context(k)
        bad = gens.monomial(1, {}, ["vh1", "vh2"])  # weight -2
        with pytest.raises(NotHomogeneous):
            linear_poisson_deform([bad], k)

    def test_pi0_not_poisson(self):
        k = 3
        gens, _ = poisson_context(k)
        bad_mu = MultiMap(2, 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)})
        with pytest.raises(Order0NotLie):
            linear_poisson_deform([lie_to_poisson(bad_mu)], k)

    def test_mirror_matches_lie_engine(self):
        # same prefix on both sides: extendability and obstruction order
        # must agree through the isomorphism
        for mu0, tag in [(so3(), "so3"), (heisenberg(), "h3")]:
            rng = random.Random(7)
            mu1 = random_cocycle(rng, mu0)
            lie_coeffs, lie_certs = extend_series([mu0, mu1], order=3)
            pi_prefix = [lie_to_poisson(mu0), lie_to_poisson(mu1)]
            poi_coeffs, poi_certs = linear_poisson_deform(
                pi_prefix, mu0.dim, order=3)
            assert len(lie_certs) == len(poi_certs)
            for lc, pc in zip(lie_certs, poi_certs):
                assert lc.extends == pc.extends
                # cocycles correspond through iso_I (Schouten side maps
                # to the CM side, point case)
                if pc.extends:
                    sol_md = iso_I(pc.solution, 0, mu0.dim) \
                        if not pc.solution.is_zero() else None
                    if sol_md is not None:
                        mm = multimap_of_multiderivation(sol_md)
                        assert ce_differential(mu0, mm) == lc.cocycle

    def test_poisson_equivalence_first_order(self):
        k = 3
        gens, ctx = poisson_context(k)
        pi0 = lie_to_poisson(so3())
        rng = random.Random(4)
        # weight-0 vector field: v_b vh_a combinations
        X0 = gens.zero()
        for a in range(k):
            for b in range(k):
                c = Fraction(rng.randint(-1, 1))
                if c:
                    X0 = X0 + c * gens.monomial(1, {f"v{b + 1}": 1},
                                                [f"vh{a + 1}"])
        pi_series = FormalSeries(2, [pi0], gens.zero())
        X_series = FormalSeries(2, [X0], gens.zero())
        out = poisson_apply_equivalence(pi_series, X_series, k)
        assert out[0] == pi0
        assert out[1] - pi_series[1] == ctx.schouten(pi0, X0)


def exact_lie_prefix(mu0, seed):
    """[mu_0, delta X] for a random linear map X."""
    rng = random.Random(seed)
    X = MultiMap(1, mu0.dim, {(i,): tuple(rng.randint(-2, 2)
                                          for _ in range(mu0.dim))
                              for i in range(mu0.dim)})
    return [mu0, ce_differential(mu0, X)]


def _heisenberg_obstructed_prefix():
    _, reps = cohomology(heisenberg(), 2)
    return [heisenberg(), reps[0] + reps[2]]


def _twisted_dirac_certs(degree_cap):
    """Graph deformations on R^3 with the Poisson bivector
    q1 d/dq1 ^ d/dq2 on the dual summand: a polynomial model (m > 0)
    whose orders have nonzero solutions once the degree cap allows
    them."""
    th = co.build_theta(co.CourantInput(
        3, 3, rho={(i, i): 1 for i in range(3)},
        rho_bar={(1, 0): "q1", (0, 1): "-1 q1"}, c_bar={(0, 1, 0): 1}))
    omega = parse(th.gens, "a^2 a^3 + -1 q1 a^1 a^2")
    return co.deform_series_dirac(th, [omega], 3, degree_cap=degree_cap)[1]


CERTIFICATE_CASES = {
    "lie solution": lambda: extend_series(exact_lie_prefix(FIL4, 0),
                                          order=3)[1],
    "lie witness": lambda: extend_series(_heisenberg_obstructed_prefix(),
                                         order=3)[1],
    "poisson solution": lambda: linear_poisson_deform(
        exact_poisson_prefix(FIL4, 0), 4, order=3)[1],
    "poisson witness": lambda: linear_poisson_deform(
        [lie_to_poisson(m) for m in _heisenberg_obstructed_prefix()], 3,
        order=3)[1],
    "dirac solution": lambda: _twisted_dirac_certs(2),
    "dirac witness": lambda: _twisted_dirac_certs(1),
}


def tampered(cert):
    """The certificate with its evidence altered so that verify() must
    reject it: the solution with one nonzero basis coefficient negated,
    or the witness with one entry flipped on a row where d does not
    vanish (so y^T d = 0 breaks)."""
    d = cert.differential
    if cert.extends:
        x = cert.solution
        for b in d.basis:
            (key, unit), = b.terms.items()
            if key in x.terms:
                x = x - 2 * (x.terms[key] / unit) * b
                return ObstructionCertificate(d, cert.order, cert.cocycle,
                                              solution=x)
        raise AssertionError("zero solution: nothing to flip")
    key = min(key for b in d.basis for key in d.op(b).terms)
    y = dict(cert.witness)
    y[key] = -y[key] if y.get(key) else Fraction(1)
    return ObstructionCertificate(d, cert.order, cert.cocycle, witness=y)


class TestCertificate:
    @pytest.mark.parametrize("case, status", [
        ("lie solution", "EXTENDS"),
        ("lie witness", "OBSTRUCTED"),
        ("poisson solution", "EXTENDS"),
        ("poisson witness", "OBSTRUCTED"),
        ("dirac solution", "EXTENDS"),
        ("dirac witness", "NO_SOLUTION_UP_TO_DEGREE"),
    ])
    def test_verify_accepts_and_rejects_tampering(self, case, status):
        certs = CERTIFICATE_CASES[case]()
        assert all(c.verify() for c in certs)
        assert certs[-1].status == status
        last = [c for c in certs if not c.cocycle.is_zero()][-1]
        assert not tampered(last).verify()


def filiform(n):
    """Model filiform algebra: [e0, ei] = e(i+1) for 1 <= i <= n-2."""
    return MultiMap(2, n, {(0, i): tuple(int(t == i + 1) for t in range(n))
                           for i in range(1, n - 1)})


def solve_by_elimination(d, order, R):
    """The certificate of d x = R read from `ratlin.solve_sparse` for
    every R, zero included, with x summed over d's whole basis."""
    status, v = ratlin.solve_sparse(d.images, R.terms)
    if status != "SOLUTION":
        return ObstructionCertificate(d, order, R, witness=v)
    x = d.zero
    for coeff, b in zip(v, d.basis):
        if coeff:
            x = x + coeff * b
    return ObstructionCertificate(d, order, R, solution=x)


def evidence(cert):
    return cert.status, cert.solution, cert.witness


class TestDifferential:
    @pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
    def test_zero_rhs_matches_elimination(self, case):
        # R = 0 is solved by zero without an elimination; the certificate
        # is the one that the elimination of [M | 0] gives
        d = CERTIFICATE_CASES[case]()[0].differential
        R = d.op(d.zero)
        cert, ref = d.solve(1, R), solve_by_elimination(d, 1, R)
        assert evidence(cert) == evidence(ref) == ("EXTENDS", d.zero, None)
        assert cert.verify() and ref.verify()

    @pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
    def test_every_order_matches_elimination(self, case):
        for cert in CERTIFICATE_CASES[case]():
            ref = solve_by_elimination(cert.differential, cert.order,
                                       cert.cocycle)
            assert evidence(cert) == evidence(ref)

    def test_filiform6_classes_match_elimination(self):
        mu = filiform(6)
        _, reps = cohomology(mu, 2)
        for rep in reps:
            for cert in extend_series([mu, rep], 3)[1]:
                ref = solve_by_elimination(cert.differential, cert.order,
                                           cert.cocycle)
                assert evidence(cert) == evidence(ref)

    @pytest.mark.parametrize("rep", [6, 10])
    def test_filiform6_obstructions(self, rep):
        # two of the twelve classes of H^2(filiform_6) are obstructed at
        # order 2, each with the witness e^{1,2,5} (x) e_4
        mu = filiform(6)
        _, reps = cohomology(mu, 2)
        coeffs, certs = extend_series([mu, reps[rep]], 3)
        assert len(coeffs) == 2
        assert [(c.order, c.status) for c in certs] == [(2, "OBSTRUCTED")]
        assert certs[0].witness == {((1, 2, 5), 4): 1}
        assert certs[0].verify()

    def test_basis_and_images_built_on_first_need(self, monkeypatch):
        built = []
        for name in ("_unit_cochains", "_delta_columns"):
            def counted(*args, f=getattr(ld, name), name=name):
                built.append(name)
                return f(*args)
            monkeypatch.setattr(ld, name, counted)
        mu = filiform(6)
        _, reps = cohomology(mu, 2)
        # a nonzero R_2 needs the images, and its witness the basis
        cert = extend_series([mu, reps[6]], 3)[1][-1]
        assert built == ["_delta_columns"]
        assert cert.verify()
        assert built == ["_delta_columns", "_unit_cochains"]
