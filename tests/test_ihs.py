"""Tests for the implicit-Hamiltonian-system simulator and the exact
admissible-function algebra."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diracdeform import ihs, ratlin
from diracdeform.dirac_linear import (
    LinearDirac,
    from_bivector,
    from_R_Omega,
    from_two_form,
    space_V,
    space_V_star,
)
from diracdeform.multilinear import base_gens
from diracdeform.superalg import SuperElement, parse
from ihs_oracles import NumpySolver, float_parts


def poly(n, text):
    return parse(base_gens(n), text)


def oscillator():
    L = ihs.canonical_symplectic(1)
    H = poly(2, "1/2 x1^2 + 1/2 x2^2")
    return ihs.IHSystem(L, H)


def kernel_structure():
    """Canonical bracket on (x1, x2) plus a kernel direction x3."""
    rows = [[0, 1, 0, 1, 0, 0],
            [-1, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 0]]
    return LinearDirac(3, ratlin.Subspace(6, ratlin.mat(rows)))


def rand_poly(rng, n, degree=2):
    gens = base_gens(n)
    out = gens.zero()
    for _ in range(4):
        e = [0] * n
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        mono = SuperElement(gens, {(tuple(e), ()): Fraction(1)})
        out = out + rng.randint(-3, 3) * mono
    return out


def exact_value(p, x):
    total = Fraction(0)
    for (e, _), c in p.terms.items():
        for xi, k in zip(x, e):
            c *= xi ** k
        total += c
    return total


def test_float_evaluation_matches_exact():
    H = poly(3, "1/3 x1^3 x2 + -5/7 x2^2 x3 + 2 x3 + -9/4")
    sys_ = ihs.IHSystem(space_V(3), H)
    x = [Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4)]
    xf = np.array([float(v) for v in x])
    assert sys_.energy(xf) == pytest.approx(float(exact_value(H, x)),
                                           rel=1e-14)
    grad = [float(exact_value(H.partial_even(v), x)) for v in sys_.gens.even]
    assert np.allclose(sys_.dH(xf), grad, rtol=1e-14, atol=0)


class TestVelocitySolve:
    def test_hamilton_equations(self):
        sys_ = oscillator()
        r = sys_.velocity_solve([1.0, 2.0])
        assert r.status == "OK"
        assert np.allclose(r.xdot, [2.0, -1.0], atol=1e-12)
        assert r.gauge == []
        assert r.residual < 1e-12

    def test_graph_over_V_needs_critical_point(self):
        # L = V: the constraint is dH = 0, so only critical points are
        # admissible, with fully undetermined velocity
        L = space_V(2)
        H = poly(2, "1/2 x1^2 + 1/2 x2^2")
        sys_ = ihs.IHSystem(L, H)
        assert sys_.velocity_solve([1.0, 0.0]).status == "INADMISSIBLE"
        r = sys_.velocity_solve([0.0, 0.0])
        assert r.status == "OK"
        assert np.allclose(r.xdot, 0.0)
        assert len(r.gauge) == 2

    def test_one_constraint_rank_count(self):
        rows = [[1, 0, 0, 0], [0, 0, 0, 1]]   # span{(e1, 0), (0, e2*)}
        L = LinearDirac(2, ratlin.Subspace(4, ratlin.mat(rows)))
        H = poly(2, "1/2 x2^2")
        sys_ = ihs.IHSystem(L, H)
        r = sys_.velocity_solve([3.0, 4.0])
        assert r.status == "OK"
        assert np.allclose(r.xdot, 0.0)
        # rank + gauge dimension = n: one multiplier stays free
        assert len(r.gauge) == 1
        assert abs(r.gauge[0][1]) < 1e-12
        # H depending on the constrained direction is inadmissible
        bad = ihs.IHSystem(L, poly(2, "1 x1"))
        assert bad.velocity_solve([0.0, 0.0]).status == "INADMISSIBLE"

    def test_constraint_row_reports_its_residual(self):
        # M of kernel_structure() has rank 2, so P != 0; with x3 in H the
        # one constraint row is dH/dx3 = x3, evaluated exactly
        sys_ = ihs.IHSystem(kernel_structure(),
                            poly(3, "1/2 x1^2 + 1/2 x2^2 + 1/2 x3^2"))
        assert sum(not p.is_zero() for p in sys_.residual_map) == 1
        r = sys_.velocity_solve([0.3, -0.7, 0.25])
        assert (r.status, r.residual, r.xdot) == ("INADMISSIBLE", 0.25, None)
        r = sys_.velocity_solve([0.3, -0.7, 0.0])
        assert (r.status, r.residual) == ("OK", 0.0)
        assert r.xdot == [0.7, 0.3, 0.0]
        traj = sys_.integrate([0.3, -0.7, 0.0], 50)
        assert traj.residuals == [0.0] * 51
        with pytest.raises(ihs.LeftAdmissibleSet) as e:
            sys_.integrate([0.3, -0.7, 0.25], 50)
        assert (e.value.step, e.value.t) == (0, 0.0)
        # xdot overflows while the constraint row stays finite: the
        # residual of a non-finite solve is NaN, not the finite row
        big = Fraction(8 * 10 ** 307)
        H = SuperElement(base_gens(3), {((2, 0, 0), ()): big,
                                        ((0, 0, 2), ()): Fraction(1, 2)})
        r = ihs.IHSystem(kernel_structure(), H).velocity_solve(
            [1.2, 0.0, 0.0])
        assert r.status == "INADMISSIBLE" and math.isnan(r.residual)

    def test_energy_derivative_zero_at_solve_points(self):
        rng = random.Random(3)
        sys_ = oscillator()
        ker = ihs.IHSystem(kernel_structure(),
                           poly(3, "1/2 x1^2 + 1/2 x2^2"))
        for _ in range(25):
            x = [rng.uniform(-2, 2) for _ in range(2)]
            assert abs(sys_.energy_derivative(x)) < 1e-12
            x3 = [rng.uniform(-2, 2) for _ in range(3)]
            assert abs(ker.energy_derivative(x3)) < 1e-12


def lstsq_velocity_solve(sys_, x):
    """The per-call solve that the factored one replaces: lstsq for xdot,
    then an SVD of the constraint matrix for the gauge basis."""
    V, M = float_parts(sys_)
    dh = np.array(sys_.dH(x))
    b = -V @ dh
    xdot, *_ = np.linalg.lstsq(M, b, rcond=None)
    residual = float(np.linalg.norm(M @ xdot - b, np.inf))
    scale = 1.0 + float(np.linalg.norm(b, np.inf))
    if residual > sys_.tol * scale:
        return ihs.VelocityResult("INADMISSIBLE", residual=residual)
    u, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > max(M.shape) * np.finfo(float).eps
                      * (s[0] if len(s) else 1.0)))
    gauge = [vt[i] for i in range(rank, vt.shape[0])]
    return ihs.VelocityResult("OK", xdot=xdot, gauge=gauge,
                              residual=residual)


SMALL = st.integers(-3, 3)


@st.composite
def antisymmetric(draw, n):
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            A[i][j] = Fraction(draw(SMALL), draw(st.integers(1, 3)))
            A[j][i] = -A[i][j]
    return A


@st.composite
def lagrangians(draw):
    """Graphs of bivectors and two-forms, and mixed structures with a
    random range R and form on R (neither graph is global)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["bivector", "two_form", "mixed", "V",
                                 "V*"]))
    if kind == "bivector":
        return from_bivector(draw(antisymmetric(n)))
    if kind == "two_form":
        return from_two_form(draw(antisymmetric(n)))
    if kind == "V":
        return space_V(n)
    if kind == "V*":
        return space_V_star(n)
    rows = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n),
                         max_size=n))
    R = ratlin.Subspace(n, rows)
    return from_R_Omega(R, draw(antisymmetric(R.dim)))


@st.composite
def systems(draw):
    """A random Hamiltonian, or one built from squares and multiples of
    linear forms w.x with w in pr_{V*}(L), which is admissible
    everywhere."""
    L = draw(lagrangians())
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    gens = base_gens(L.n)
    if not draw(st.booleans()):
        return ihs.IHSystem(L, rand_poly(rng, L.n))
    H = gens.zero()
    for w in ihs.IHSystem(L, H).covector_projection().basis:
        form = gens.zero()
        for wi, v in zip(w, gens.even):
            form = form + wi * gens.gen(v)
        H = H + rng.randint(-3, 3) * form * form + rng.randint(-3, 3) * form
    return ihs.IHSystem(L, H)


POINTS = st.floats(-2, 2, allow_nan=False, allow_infinity=False)


class TestFactoredSolve:
    @given(systems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_lstsq_oracle(self, sys_, data):
        exact_rank = ratlin.rank([list(row)[sys_.n:]
                                  for row in sys_.L.subspace.basis])
        gauges = []
        for _ in range(3):
            x = data.draw(st.lists(POINTS, min_size=sys_.n,
                                   max_size=sys_.n))
            want = lstsq_velocity_solve(sys_, x)
            scale = 1.0 + float(np.max(np.abs(
                float_parts(sys_)[0] @ np.array(sys_.dH(x))),
                initial=0.0))
            # a residual right at the threshold may fall either way
            assume(abs(want.residual - sys_.tol * scale)
                   > 1e-6 * sys_.tol * scale)
            got = sys_.velocity_solve(x)
            assert got.status == want.status
            if got.status != "OK":
                assert got.gauge == []
                continue
            size = max(1.0, float(np.max(np.abs(want.xdot), initial=0.0)))
            assert np.max(np.abs(np.array(got.xdot) - want.xdot),
                          initial=0.0) <= 1e-12 * size
            G = np.array(got.gauge).reshape(len(got.gauge), sys_.n)
            assert len(got.gauge) == sys_.n - exact_rank == len(want.gauge)
            assert np.allclose(G @ G.T, np.eye(len(G)), atol=1e-12)
            assert np.allclose(float_parts(sys_)[1] @ G.T, 0.0,
                               atol=1e-12)
            gauges.append(got.gauge)
        assert all(g is gauges[0] for g in gauges)

    def test_no_factorization_after_construction(self, monkeypatch):
        # the last system has a constraint row, zero on x3 = 0
        systems_ = [(oscillator(), [1.0, 0.5]),
                    (ihs.IHSystem(kernel_structure(),
                                  poly(3, "1/2 x1^2 + 1/2 x2^2")),
                     [1.0, 0.5, 0.5]),
                    (ihs.IHSystem(kernel_structure(),
                                  poly(3, "1/2 x1^2 + 1/2 x2^2 + x3^2")),
                     [1.0, 0.5, 0.0])]

        def forbidden(*args, **kwargs):
            raise AssertionError("exact work inside the solve")

        for name in ("Echelon", "pseudo_inverse", "kernel_basis", "solve"):
            monkeypatch.setattr(ratlin, name, forbidden)
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "partial_even"):
            monkeypatch.setattr(SuperElement, name, forbidden)
        for sys_, x0 in systems_:
            traj = sys_.integrate(x0, 200)
            assert len(traj.residuals) == 201
            assert abs(sys_.energy_derivative(x0)) < 1e-12

    def test_non_finite_state_is_inadmissible(self):
        sys_ = oscillator()
        assert sys_.velocity_solve([math.nan, 0.0]).status == "INADMISSIBLE"

    @pytest.mark.parametrize("L, x", [
        ("canonical", [1.2, 0.0]),      # xdot = K grad H overflows
        ("canonical", [0.0, 1.2]),      # ... and after a finite row
        ("canonical", [0.0, -1.2]),
        ("canonical", [0.0, math.inf]),
        ("V", [1.2, 0.0]),              # the one constraint row is not finite
        ("V", [0.0, -1.2]),
    ])
    def test_overflowing_differential_is_inadmissible(self, L, x):
        # dH overflows to +-inf in one row while the other stays finite:
        # neither a later finite row nor inf <= tol * inf may let the
        # solve pass
        L = ihs.canonical_symplectic(1) if L == "canonical" else space_V(2)
        big = Fraction(8 * 10 ** 307)
        H = SuperElement(base_gens(2), {((2, 0), ()): big,
                                        ((0, 2), ()): big})
        sys_ = ihs.IHSystem(L, H)
        assert not all(map(math.isfinite, sys_.dH(x)))
        r = sys_.velocity_solve(x)
        assert r.status == "INADMISSIBLE"
        assert not math.isfinite(r.residual)
        assert r.xdot is None and r.gauge == []

    def test_zero_dimensional_system(self):
        sys_ = ihs.IHSystem(space_V(0), base_gens(0).zero())
        r = sys_.velocity_solve([])
        assert (r.status, r.gauge, r.residual) == ("OK", [], 0.0)
        assert sys_.integrate([], 3).residuals == [0.0] * 4


def third_system():
    """Entries of 1/3 make the compiled field inexact in floats; M is
    invertible, so P = 0."""
    pi = [[0, Fraction(1, 3), 1, 0], [Fraction(-1, 3), 0, 0, 2],
          [-1, 0, 0, Fraction(1, 3)], [0, -2, Fraction(-1, 3), 0]]
    return ihs.IHSystem(from_bivector(pi), poly(
        4, "1/2 x1^2 + 1/3 x2 x3 + 1/2 x4^2 + 1/5 x1 x3"))


def trajectory_or_exit(integrate, x0):
    try:
        return integrate(x0, 20, h=1e-2)
    except ihs.LeftAdmissibleSet as e:
        return e


RATIONALS = st.fractions(-2, 2, max_denominator=7)


class TestCompiledMaps:
    @given(systems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_maps_match_ratlin(self, sys_, data):
        # rebuild -M+ V grad H and (I - M M+) V grad H at a rational
        # point from the basis of L, as the least-norm solve and its
        # residual M xdot - b for b = -V grad H
        n = sys_.n
        V = [list(row)[:n] for row in sys_.L.subspace.basis]
        M = [list(row)[n:] for row in sys_.L.subspace.basis]
        x = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        grad = [exact_value(sys_.H.partial_even(v), x)
                for v in sys_.gens.even]
        b = [-a for a in ratlin.mat_vec(V, grad)]
        xdot = ratlin.mat_vec(ratlin.pseudo_inverse(M), b)
        residual = [a - c for a, c in zip(ratlin.mat_vec(M, xdot), b)]
        assert [exact_value(p, x) for p in sys_.field] == xdot
        assert [exact_value(p, x) for p in sys_.residual_map] == residual
        if ratlin.rank(M) == n:
            assert all(p.is_zero() for p in sys_.residual_map)


class TestAgainstNumpyOracle:
    @given(st.one_of(st.builds(third_system), systems()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trajectories_match(self, sys_, data):
        x0 = data.draw(st.lists(POINTS, min_size=sys_.n, max_size=sys_.n))
        oracle = NumpySolver(sys_)
        solve = oracle.velocity_solve
        margins = []

        def recording_solve(x):
            r = solve(x)
            scale = 1.0 + float(np.max(np.abs(
                oracle.vec_part @ np.array(sys_.dH(x))), initial=0.0))
            margins.append(r.residual / (sys_.tol * scale))
            return r

        oracle.velocity_solve = recording_solve
        want = trajectory_or_exit(oracle.integrate, x0)
        # a residual near the threshold may fall either way
        assume(not any(1e-3 < q < 1e3 for q in margins))
        got = trajectory_or_exit(sys_.integrate, x0)
        assert type(got) is type(want)
        if isinstance(want, ihs.LeftAdmissibleSet):
            assert (got.step, got.t) == (want.step, want.t)
            return
        assert got.times == want.times
        for g, w in zip(got.points, want.points):
            size = max(1.0, float(np.max(np.abs(w), initial=0.0)))
            assert np.max(np.abs(np.array(g) - w), initial=0.0) \
                <= 1e-12 * size
        assert len(got.points) == len(want.points) == 21


class TestIntegrate:
    def test_residuals_are_those_of_the_points(self):
        # M of the first system is invertible, so P = 0 and every
        # residual is exactly 0, although its entries of 1/3 are inexact
        # in floats; in the second, P != 0 but P grad H = 0 for this H
        third = third_system()
        cases = [
            (third.L, third.H, [0.3, -0.7, 0.2, 0.9]),
            (kernel_structure(), poly(3, "1/2 x1^2 + 1/2 x2^2"),
             [0.3, -0.7, 0.2]),
        ]
        for L, H, x0 in cases:
            sys_ = ihs.IHSystem(L, H)
            traj = sys_.integrate(x0, 300, h=1e-2)
            assert len(traj.residuals) == len(traj.points) == 301
            for res, x in zip(traj.residuals, traj.points):
                assert res == sys_.velocity_solve(x).residual
            assert traj.max_residual >= max(traj.residuals[:-1])
            if L.n == 4:
                assert not any(traj.residuals)

    def test_harmonic_oscillator_circle(self):
        sys_ = oscillator()
        traj = sys_.integrate([1.0, 0.0], 1000, h=1e-3)
        assert traj.max_drift < 1e-6
        assert traj.max_residual < 1e-12
        t = traj.times[-1]
        q, p = traj.points[-1]
        assert abs(q - math.cos(t)) < 1e-6
        assert abs(p + math.sin(t)) < 1e-6

    def test_constant_hamiltonian_is_stationary(self):
        sys_ = ihs.IHSystem(ihs.canonical_symplectic(1),
                            poly(2, "7/2"))
        traj = sys_.integrate([1.0, 2.0], 50)
        assert np.allclose(traj.points[-1], [1.0, 2.0])
        assert traj.max_drift == 0.0

    def test_constrained_oscillator(self):
        # canonical on (x1, x3) = (q1, p1); (x2, x4) frozen
        pi = [[0, 0, 1, 0], [0, 0, 0, 0],
              [-1, 0, 0, 0], [0, 0, 0, 0]]
        L = from_bivector(ratlin.mat(pi))
        H = poly(4, "1/2 x1^2 + 1/2 x2^2 + 1/2 x3^2")
        sys_ = ihs.IHSystem(L, H)
        traj = sys_.integrate([1.0, 0.5, 0.0, 0.25], 1000, h=1e-3)
        assert traj.max_drift < 1e-6
        # the constrained coordinates do not move
        for t, x in zip(traj.times, traj.points):
            assert abs(x[1] - 0.5) < 1e-9
            assert abs(x[3] - 0.25) < 1e-9
        q = [x[0] for x in traj.points]
        assert abs(q[-1] - math.cos(traj.times[-1])) < 1e-6

    def test_left_admissible_set(self):
        L = space_V(2)
        H = poly(2, "1/2 x1^2")
        sys_ = ihs.IHSystem(L, H)
        with pytest.raises(ihs.LeftAdmissibleSet):
            sys_.integrate([1.0, 0.0], 10)


class TestAdmissibleBracket:
    def test_canonical_table(self):
        # with the opposite graph orientation the induced bracket is
        # the classical one: {q, p} = 1
        d = 1
        pi = [[0, -1], [1, 0]]
        L = from_bivector(ratlin.mat(pi))
        sys_ = ihs.IHSystem(L, poly(2, "0"))
        q = sys_.gens.gen("x1")
        p = sys_.gens.gen("x2")
        assert sys_.admissible_bracket(q, p) == 1
        assert sys_.admissible_bracket(p, q) == -1

    def test_antisymmetry_on_diagonal(self):
        rng = random.Random(5)
        sys_ = oscillator()
        for _ in range(10):
            f = rand_poly(rng, 2)
            assert sys_.admissible_bracket(f, f).is_zero()

    def test_leibniz(self):
        rng = random.Random(6)
        sys_ = oscillator()
        for _ in range(10):
            f, g, h = (rand_poly(rng, 2) for _ in range(3))
            lhs = sys_.admissible_bracket(f * g, h)
            rhs = (g * sys_.admissible_bracket(f, h)
                   + f * sys_.admissible_bracket(g, h))
            assert lhs == rhs

    def test_jacobi_constant_L(self):
        rng = random.Random(7)
        for sys_ in (oscillator(),
                     ihs.IHSystem(kernel_structure(), poly(3, "0"))):
            n = sys_.n
            for _ in range(8):
                polys = []
                while len(polys) < 3:
                    cand = rand_poly(rng, n)
                    if sys_.is_admissible(cand):
                        polys.append(cand)
                f, g, h = polys
                br = sys_.admissible_bracket
                jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
                assert jac.is_zero()

    def test_kernel_structure_admissibility(self):
        sys_ = ihs.IHSystem(kernel_structure(), poly(3, "0"))
        x1 = sys_.gens.gen("x1")
        x3 = sys_.gens.gen("x3")
        assert sys_.is_admissible(x1)
        assert not sys_.is_admissible(x3)
        with pytest.raises(ihs.NotAdmissible):
            sys_.admissible_bracket(x1, x3)
        with pytest.raises(ihs.NotAdmissible):
            sys_.admissible_bracket(x3, x1)

    def test_reduced_bracket_matches_quotient_oracle(self):
        # admissible functions are those constant along the kernel;
        # their bracket is the canonical bracket of the (x1, x2) plane
        rng = random.Random(8)
        sys_ = ihs.IHSystem(kernel_structure(), poly(3, "0"))

        def lift(p2):
            return SuperElement(sys_.gens, {(e + (0,), o): c
                                            for (e, o), c in p2.terms.items()})

        def oracle(f2, g2):
            return (f2.partial_even("x1") * g2.partial_even("x2")
                    - f2.partial_even("x2") * g2.partial_even("x1"))

        for _ in range(10):
            f2, g2 = rand_poly(rng, 2), rand_poly(rng, 2)
            got = sys_.admissible_bracket(lift(f2), lift(g2))
            assert got == lift(oracle(f2, g2))

    def test_bracket_independent_of_field_choice(self):
        rng = random.Random(9)
        sys_ = ihs.IHSystem(kernel_structure(), poly(3, "0"))
        kers = sys_.kernel_directions()
        assert kers == [[Fraction(0), Fraction(0), Fraction(1)]]
        f = poly(3, "1 x1 x2")
        g = poly(3, "1 x2^2")
        X = sys_.hamiltonian_field(f)
        base = sys_.admissible_bracket(f, g)
        # shift X_f by a kernel direction times any polynomial factor
        shift = rand_poly(rng, 3)
        Xp = [X[i] + shift * kers[0][i] for i in range(3)]
        alt = sys_.gens.zero()
        for Xi, v in zip(Xp, sys_.gens.even):
            alt = alt + Xi * g.partial_even(v)
        assert alt == base

    def test_covector_projection(self):
        sys_ = ihs.IHSystem(kernel_structure(), poly(3, "0"))
        W = sys_.covector_projection()
        assert W.dim == 2
        assert W.contains_vector([Fraction(1), Fraction(0), Fraction(0)])
        assert not W.contains_vector([Fraction(0), Fraction(0),
                                      Fraction(1)])


class TestSerialization:
    def test_round_trip(self):
        import json
        sys_ = oscillator()
        obj = json.loads(json.dumps(ihs.system_to_json(sys_)))
        back = ihs.system_from_json(obj)
        assert back.H == sys_.H
        assert back.L.subspace == sys_.L.subspace
        r = back.velocity_solve([1.0, 2.0])
        assert np.allclose(r.xdot, [2.0, -1.0])

    def test_hamiltonian_terms(self):
        obj = ihs.system_to_json(oscillator())
        obj["H"] = [[[2, 0], "1"], [[0, 1], "0"], [[2, 0], "1/2"]]
        assert ihs.system_from_json(obj).H == poly(2, "1/2 x1^2")
        for bad in ([1, 0, 0], [-1, 2], [1.5, 0]):
            obj["H"] = [[bad, "1"]]
            with pytest.raises(ihs.BadPolynomial):
                ihs.system_from_json(obj)
