"""Tests for the implicit-Hamiltonian-system simulator and the exact
admissible-function algebra."""

import argparse
import hashlib
import io
import json
import math
import random
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diracdeform import cli, ihs, ratlin
from diracdeform.dirac_linear import LinearDirac, from_bivector, from_two_form
from diracdeform.dirac_theory import (
    NotAdmissible,
    admissible_bracket,
    canonical_symplectic,
    covector_projection,
    from_R_Omega,
    hamiltonian_field,
    is_admissible,
    kernel_directions,
    space_V,
    space_V_star,
)
from diracdeform.multilinear import base_gens
from diracdeform.superalg import SuperElement, parse
from ihs_oracles import (
    NumpySolver,
    float_parts,
    rowwise_trajectory_text,
    staged_integrate,
    system_to_json,
)
from ratlin_oracles import rank


def poly(n, text):
    return parse(base_gens(n), text)


def oscillator():
    L = canonical_symplectic(1)
    H = poly(2, "1/2 x1^2 + 1/2 x2^2")
    return ihs.IHSystem(L, H)


def constrained_oscillator():
    """Canonical on (x1, x3) = (q1, p1); (x2, x4) frozen."""
    pi = [[0, 0, 1, 0], [0, 0, 0, 0],
          [-1, 0, 0, 0], [0, 0, 0, 0]]
    return ihs.IHSystem(from_bivector(ratlin.mat(pi)),
                        poly(4, "1/2 x1^2 + 1/2 x2^2 + 1/2 x3^2"))


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
    for w in covector_projection(ihs.IHSystem(L, H)).basis:
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
        exact_rank = rank([list(row)[sys_.n:]
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
        L = canonical_symplectic(1) if L == "canonical" else space_V(2)
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


def trajectory_or_exit(integrate, x0, steps=20, h=1e-2):
    try:
        return integrate(x0, steps, h=h)
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
        if rank(M) == n:
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
        sys_ = ihs.IHSystem(canonical_symplectic(1),
                            poly(2, "7/2"))
        traj = sys_.integrate([1.0, 2.0], 50)
        assert np.allclose(traj.points[-1], [1.0, 2.0])
        assert traj.max_drift == 0.0

    def test_constrained_oscillator(self):
        sys_ = constrained_oscillator()
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


@st.composite
def stepped_systems(draw):
    """Systems that reach every branch of the generated step: constraint
    rows (P grad H != 0), multi-term H of degree up to 4, powers that
    overflow, a coefficient of 8e307, a constant field of 1e308 whose
    stage sum overflows although every stage is finite, coefficients of
    +-1.0 and powers of 1, and the random systems of the other oracle
    tests."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["kernel", "third", "quartic", "big",
                                 "sum", "unit", "degree4", "frozen",
                                 "random"]))
    if kind == "kernel":
        H = rng.choice([poly(3, "1/2 x1^2 + 1/2 x2^2 + 1/2 x2^2 x3^2"),
                        rand_poly(rng, 3, degree=4)])
        return ihs.IHSystem(kernel_structure(), H)
    if kind == "third":
        return third_system()
    if kind == "quartic":
        return ihs.IHSystem(canonical_symplectic(1),
                            poly(2, "x1^4 + x2^4"))
    if kind == "big":       # dH overflows to inf for |x| > 1
        big = Fraction(8 * 10 ** 307)
        return ihs.IHSystem(
            rng.choice([canonical_symplectic(1), space_V(2)]),
            SuperElement(base_gens(2), {((2, 0), ()): big,
                                        ((0, 2), ()): big}))
    if kind == "sum":
        return ihs.IHSystem(canonical_symplectic(1), SuperElement(
            base_gens(2), {((0, 1), ()): Fraction(10 ** 308)}))
    if kind == "unit":      # rows of +-1.0 times powers of 1, or mixed
        if rng.random() < 0.5:
            return oscillator()
        sign = rng.choice(["", "-"])
        return ihs.IHSystem(kernel_structure(), poly(
            3, f"1/2 x1^2 + 1/2 x2^2 + {sign}1 x2^2 x3"))
    if kind == "degree4":
        L = draw(lagrangians())
        return ihs.IHSystem(L, rand_poly(rng, L.n, degree=4))
    if kind == "frozen":    # x2 and x4 frozen, no constraint rows
        return constrained_oscillator()
    return draw(systems())


# tiny entries keep a kernel coordinate admissible with a nonzero residual
EXTREME = st.sampled_from([0.0, -0.0, 1e-12, -3e-11, 1e5, -1.2, 1e30, -1e30,
                           1e100, math.nan, math.inf, -math.inf])
# a frozen coordinate x gets x + h * 0.0 at every stage: -0.0 + 0.0 is
# 0.0, but -0.0 + -0.0 is -0.0, and inf * 0.0 is NaN
FROZEN = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan])
STEP_SIZES = st.sampled_from([1e-3, 1e-2, 0.3, 1e200, -1e-3, -0.3, 5e-324,
                              -5e-324, 0.0, -0.0, math.inf, -math.inf,
                              math.nan])


class TestGeneratedStep:
    @given(stepped_systems(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_staged_oracle(self, sys_, data):
        # repr compares floats bit for bit (it tells -0.0 from 0.0, and
        # a NaN from every number)
        x0 = [data.draw(st.one_of(POINTS, EXTREME) if row else
                        st.one_of(FROZEN, POINTS, EXTREME))
              for row in sys_._field_terms]
        steps = data.draw(st.integers(0, 25))
        h = data.draw(STEP_SIZES)
        got = trajectory_or_exit(sys_.integrate, x0, steps, h)
        want = trajectory_or_exit(
            lambda *a, h: staged_integrate(sys_, *a, h=h), x0, steps, h)
        assert type(got) is type(want)
        if isinstance(want, ihs.LeftAdmissibleSet):
            assert repr((got.step, got.t, got.x)) == \
                repr((want.step, want.t, want.x))
            return
        for attr in ("times", "points", "energies", "residuals",
                     "max_residual", "max_drift"):
            assert repr(getattr(got, attr)) == repr(getattr(want, attr))

    def test_max_residual_counts_every_stage(self):
        # x2 peaks between grid points, so the largest stage residual
        # |x2^2 x3| exceeds every point's residual
        sys_ = ihs.IHSystem(kernel_structure(), poly(
            3, "1/2 x1^2 + 1/2 x2^2 + 1/2 x2^2 x3^2"))
        got = sys_.integrate([0.7, 0.0, 1e-12], 2000)
        assert got.max_residual > max(got.residuals)
        assert repr(vars(got)) == repr(vars(
            staged_integrate(sys_, [0.7, 0.0, 1e-12], 2000)))

    def test_replay_continues_with_the_same_floats(self, monkeypatch):
        # the stage sum 1e308 + 2e308 overflows, so every step is
        # replayed, and x1 becomes inf while H = 1e308 x2 stays 0
        sys_ = ihs.IHSystem(canonical_symplectic(1), SuperElement(
            base_gens(2), {((0, 1), ()): Fraction(10 ** 308)}))
        replays = []
        staged = sys_._staged_step
        monkeypatch.setattr(sys_, "_staged_step",
                            lambda *a: replays.append(a) or staged(*a))
        traj = sys_.integrate([0.0, 0.0], 3)
        assert len(replays) == 3
        assert traj.points[-1] == [math.inf, 0.0]
        assert repr(traj.points) == repr(
            staged_integrate(sys_, [0.0, 0.0], 3).points)

    @pytest.mark.parametrize("L, H, x0", [
        # with constraint rows, and without
        (kernel_structure(), "1/2 x1^2 + 1/2 x2^2 + 1/2 x2^2 x3^2",
         [0.3, -0.7, 1e-12]),
        (canonical_symplectic(1), "1/2 x1^2 + 1/2 x2^2", [0.6, -0.8])])
    def test_replay_in_mid_trajectory(self, monkeypatch, L, H, x0):
        # the generated loop stops once before step k, as at a step it
        # cannot commit: integrate replays k alone, then re-enters at k + 1
        sys_ = ihs.IHSystem(L, poly(L.n, H))
        steps, k = 40, 17
        loop, staged, entries, replays = sys_._step, sys_._staged_step, [], []

        def stop_once(*args):
            s = args[sys_.n + 3]        # after x.., h, h2, h6
            entries.append(s)
            until = k if len(entries) == 1 else args[sys_.n + 4]
            got = loop(*args[:sys_.n + 4], until, *args[sys_.n + 5:])
            assert got[0] == until
            return got

        monkeypatch.setattr(sys_, "_step", stop_once)
        monkeypatch.setattr(sys_, "_staged_step",
                            lambda *a: replays.append(a[0]) or staged(*a))
        traj = sys_.integrate(x0, steps)
        assert replays == [k]
        assert entries == [0, k + 1]
        assert repr(vars(traj)) == \
            repr(vars(staged_integrate(sys_, x0, steps)))

    @pytest.mark.parametrize("H, x0, h, step, t", [
        # x2 = -2e87 after the k1 stage, so the k2 stage overflows
        ({(4, 0): 1, (0, 4): 1}, [1e30, 1.0], 1e-3, 0, 5e-4),
        # the initial energy overflows
        ({(4, 0): 1, (0, 4): 1}, [1e100, 1.0], 1e-3, 0, 0.0),
        # every stage is finite, the energy at x1 = 13408 is not
        ({(2, 0): 10 ** 300, (0, 1): 1}, [13407.0, 0.0], 1.0, 0, 1.0),
    ])
    def test_overflow_is_replayed_to_its_stage(self, H, x0, h, step, t):
        sys_ = ihs.IHSystem(canonical_symplectic(1), SuperElement(
            base_gens(2), {(e, ()): Fraction(c) for e, c in H.items()}))
        with pytest.raises(ihs.LeftAdmissibleSet) as err:
            sys_.integrate(x0, 5, h=h)
        with pytest.raises(ihs.LeftAdmissibleSet) as want:
            staged_integrate(sys_, x0, 5, h=h)
        assert (err.value.step, err.value.t) == (step, t)
        assert err.value.x == want.value.x

    def test_long_rows_compile(self):
        # H has 5,151 terms: a sum that deep as one expression exceeds the
        # recursion limit of compile(), so each row is summed in chunks
        H = SuperElement(base_gens(2), {
            ((i, j), ()): Fraction(1, i + j + 1)
            for i in range(101) for j in range(101 - i)})
        sys_ = ihs.IHSystem(canonical_symplectic(1), H)
        x0 = [0.3, -0.2]
        assert repr(vars(sys_.integrate(x0, 3))) == \
            repr(vars(staged_integrate(sys_, x0, 3)))

    def test_source_holds_only_generated_names_and_numbers(self,
                                                            monkeypatch):
        import io
        import re
        import tokenize
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(ihs, "compile", spy, raising=False)
        sys_ = ihs.IHSystem(kernel_structure(), poly(
            3, "-1/3 x1^4 + 7/2 x2^2 x3^2 + 2/7 x1 + 5"))
        assert sources == []        # compiled on the first integrate
        sys_.integrate([0.1, 0.2, 0.0], 2)
        sys_.integrate([0.1, 0.2, 0.0], 2)
        ihs.IHSystem(space_V(0), base_gens(0).zero()).integrate([], 1)
        assert len(sources) == 2
        # the loop's fixed vocabulary, then the generated variables
        name = re.compile(r"(def|step|return|max|abs|while|if|not|try"
                          r"|except|OverflowError|s|steps|tol|C\d+|E|R"
                          r"|max_res|e|z|h|h2|h6|x\d+|m\d+|[kyrb]\d+_\d+)$")
        for source in sources:
            for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline):
                if tok.type == tokenize.NAME:
                    assert name.match(tok.string), tok.string
                elif tok.type == tokenize.NUMBER:
                    assert repr(float(tok.string)) == tok.string \
                        or tok.string.isdigit()
                elif tok.type == tokenize.OP:
                    assert tok.string in {"(", ")", "[", "]", ",", ":", "=",
                                          "+", "-", "*", "**", "<", "<=",
                                          "!=", "+="}, tok.string

    @pytest.mark.parametrize("sys_, x0, frozen", [
        (constrained_oscillator(), [1.0, 0.5, 0.0, 0.25], [1, 3]),
        (ihs.IHSystem(kernel_structure(), poly(
            3, "1/2 x1^2 + 1/2 x2^2 + 1/2 x2^2 x3^2")), [0.3, -0.7, 1e-12],
         [2])])
    def test_frozen_coordinates_get_no_stage_rows(self, monkeypatch, sys_,
                                                  x0, frozen):
        # an empty field row has no k rows and one stage value, y0_i,
        # written once per step; without constraint rows, no residual is
        # committed per step
        import re
        sources = []
        monkeypatch.setattr(ihs, "compile", lambda source, *args: (
            sources.append(source) or compile(source, *args)), raising=False)
        sys_.integrate(x0, 1)
        [source] = sources
        assert [i for i, row in enumerate(sys_._field_terms)
                if not row] == frozen
        for i in frozen:
            assert not re.search(rf"\bk\d+_{i}\b", source)
            assert not re.search(rf"\by[123]_{i}\b", source)
            assert source.count(f"y0_{i} = ") == 1
            assert f"y0_{i} = x{i} + h * 0.0" in source
        assert ("R(" in source) == bool(sys_._residual_terms)

    @pytest.mark.parametrize("h", [-1e-3, 1e-3, -0.0, math.inf])
    @pytest.mark.parametrize("sys_, x0", [
        (constrained_oscillator(), [0.6, -0.0, -0.8, 0.0]),
        (ihs.IHSystem(kernel_structure(), poly(
            3, "1/2 x1^2 + 1/2 x2^2 + 1/2 x2^2 x3^2")), [0.3, -0.7, -0.0])])
    def test_frozen_zeros_take_the_sign_of_h_times_zero(self, sys_, x0, h):
        # -0.0 + 0.0 is 0.0 and -0.0 + -0.0 is -0.0: a frozen -0.0 stays
        # -0.0 only for h < 0, as it does stage by stage
        got = trajectory_or_exit(sys_.integrate, x0, 3, h)
        want = trajectory_or_exit(
            lambda *a, h: staged_integrate(sys_, *a, h=h), x0, 3, h)
        assert repr(vars(got)) == repr(vars(want))

    def test_unit_factors_are_left_out(self, monkeypatch):
        # the oscillator's field rows are x2 and -x1: a power of 1 is the
        # bare name, a coefficient of 1.0 is left out, and one of -1.0
        # subtracts
        sources = []
        monkeypatch.setattr(ihs, "compile", lambda source, *args: (
            sources.append(source) or compile(source, *args)), raising=False)
        oscillator().integrate([0.6, -0.8], 1)
        [source] = sources
        assert "**1" not in source
        assert "(1.0) *" not in source and "(-1.0) *" not in source
        assert "k0_0 = 0.0 + x1" in source and "k0_1 = 0.0 - x0" in source


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
        assert admissible_bracket(sys_, q, p) == 1
        assert admissible_bracket(sys_, p, q) == -1

    def test_antisymmetry_on_diagonal(self):
        rng = random.Random(5)
        sys_ = oscillator()
        for _ in range(10):
            f = rand_poly(rng, 2)
            assert admissible_bracket(sys_, f, f).is_zero()

    def test_leibniz(self):
        rng = random.Random(6)
        sys_ = oscillator()
        for _ in range(10):
            f, g, h = (rand_poly(rng, 2) for _ in range(3))
            lhs = admissible_bracket(sys_, f * g, h)
            rhs = (g * admissible_bracket(sys_, f, h)
                   + f * admissible_bracket(sys_, g, h))
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
                    if is_admissible(sys_, cand):
                        polys.append(cand)
                f, g, h = polys
                br = partial(admissible_bracket, sys_)
                jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
                assert jac.is_zero()

    def test_kernel_structure_admissibility(self):
        sys_ = ihs.IHSystem(kernel_structure(), poly(3, "0"))
        x1 = sys_.gens.gen("x1")
        x3 = sys_.gens.gen("x3")
        assert is_admissible(sys_, x1)
        assert not is_admissible(sys_, x3)
        with pytest.raises(NotAdmissible):
            admissible_bracket(sys_, x1, x3)
        with pytest.raises(NotAdmissible):
            admissible_bracket(sys_, x3, x1)

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
            got = admissible_bracket(sys_, lift(f2), lift(g2))
            assert got == lift(oracle(f2, g2))

    def test_bracket_independent_of_field_choice(self):
        rng = random.Random(9)
        sys_ = ihs.IHSystem(kernel_structure(), poly(3, "0"))
        kers = kernel_directions(sys_)
        assert kers == [[Fraction(0), Fraction(0), Fraction(1)]]
        f = poly(3, "1 x1 x2")
        g = poly(3, "1 x2^2")
        X = hamiltonian_field(sys_, f)
        base = admissible_bracket(sys_, f, g)
        # shift X_f by a kernel direction times any polynomial factor
        shift = rand_poly(rng, 3)
        Xp = [X[i] + shift * kers[0][i] for i in range(3)]
        alt = sys_.gens.zero()
        for Xi, v in zip(Xp, sys_.gens.even):
            alt = alt + Xi * g.partial_even(v)
        assert alt == base

    def test_covector_projection(self):
        sys_ = ihs.IHSystem(kernel_structure(), poly(3, "0"))
        W = covector_projection(sys_)
        assert W.dim == 2
        assert W.contains_vector([Fraction(1), Fraction(0), Fraction(0)])
        assert not W.contains_vector([Fraction(0), Fraction(0),
                                      Fraction(1)])


FORMAT_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                1e16, 1e-5])
FORMAT_VALUES = st.one_of(st.floats(), FORMAT_EDGES)
# rows [t, x1..xn, H, residual] of any floats, n from 0 to 12
TRAJECTORY_ROWS = st.integers(0, 12).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.floats(), FORMAT_EDGES), min_size=n + 3,
             max_size=n + 3), min_size=1, max_size=6))


def trajectory_of(rows):
    columns = [[r[i] for r in rows] for i in range(1, len(rows[0]) - 2)]
    return ihs.Trajectory([r[0] for r in rows], columns,
                          [r[-2] for r in rows], 0.0, 0.0,
                          [r[-1] for r in rows])


def rows_of(traj):
    """The rows of ihs.trajectory_rows, whose blocks are lists of rows."""
    return [row for block in ihs.trajectory_rows(traj) for row in block]


@given(TRAJECTORY_ROWS)
@settings(max_examples=300, deadline=None)
def test_trajectory_rows_are_12g_of_every_value(rows):
    # rows of up to 15 values: split() preallocates 12 at most
    assert rows_of(trajectory_of(rows)) == \
        [[f"{v:.12g}" for v in r] for r in rows]


def assert_reports_render(traj, strs):
    """ihs-run's report holds the Trajectory itself; every format writes
    the text that it wrote for the report holding the rows strs as
    strings.  Returns that text by format."""
    def report(trajectory):
        return {"command": "ihs-run", "ok": True,
                "report": {"steps": len(strs) - 1, "trajectory": trajectory}}

    assert "".join(cli._json_pieces(traj)) == json.dumps(
        strs, sort_keys=True, indent=2)
    header = ["t"] + [f"x{i}" for i in range(1, len(strs[0]) - 2)]
    want = {"json": json.dumps(report(strs), sort_keys=True, indent=2)
            + "\n",
            "csv": "".join(",".join(row) + "\n" for row in
                           [header + ["H", "residual"]] + strs),
            "table": "".join(cli._render_table(report(strs)))}
    for fmt, text in want.items():
        out = io.StringIO()
        with redirect_stdout(out):
            cli._emit(report(traj), argparse.Namespace(format=fmt,
                                                       output=None))
        assert out.getvalue() == text
    return want


@given(TRAJECTORY_ROWS)
@settings(max_examples=300, deadline=None)
def test_reports_render_the_trajectory_as_its_rows(rows):
    assert_reports_render(trajectory_of(rows),
                          [[f"{v:.12g}" for v in r] for r in rows])


def neighbours(v, offsets):
    """v moved by each offset in ulps (math.nextafter), where that keeps
    the .12g text of v."""
    col = []
    for k in offsets:
        w = v
        for _ in range(abs(k)):
            w = math.nextafter(w, math.copysign(math.inf, k))
        col.append(w if f"{w:.12g}" == f"{v:.12g}" else v)
    return col


def constant_columns(size):
    return FORMAT_VALUES.map(lambda v: [v] * size)


def one_text_columns(size):
    """Columns of size values that often share one .12g text: a repeated
    value, nextafter neighbours, zeros of either sign, a NaN in an
    otherwise constant column, infinities, or any floats."""
    def column(values):
        return st.lists(values, min_size=size, max_size=size)

    return st.one_of(
        constant_columns(size),
        st.builds(neighbours, st.floats(allow_nan=False,
                                        allow_infinity=False),
                  column(st.integers(-3, 3))),
        column(st.sampled_from([0.0, -0.0])),
        st.builds(lambda v, i: [math.nan if j == i else v
                                for j in range(size)],
                  FORMAT_VALUES, st.integers(0, size - 1)),
        column(st.sampled_from([math.inf, -math.inf])),
        column(FORMAT_VALUES))


@st.composite
def column_rows(draw):
    """Rows [t, x1..xn, H, residual], n from 0 to 4, drawn column by
    column; sometimes every column is constant."""
    n, size = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    columns = draw(st.sampled_from([one_text_columns, constant_columns]))
    return [list(r) for r in zip(*[draw(columns(size))
                                   for _ in range(n + 3)])]


# the JSON and CSV templates, and one whose literal parts hold %
TEMPLATES = [("", ",", "", "\n"), ('[\n  "', '",\n  "', '"\n]', ",\n"),
             ("%", "%%s", "%d", "%")]


@given(column_rows())
@settings(max_examples=300, deadline=None)
def test_one_text_columns_are_the_rowwise_text(rows):
    traj = trajectory_of(rows)
    for template in TEMPLATES:
        assert "".join(ihs.trajectory_text(traj, *template)) == \
            rowwise_trajectory_text(traj, *template)
    strs = [row.split("\0") for row in rowwise_trajectory_text(
        traj, "", "\0", "", "\n").split("\n")]
    assert rows_of(traj) == strs
    assert_reports_render(traj, strs)


# steps around the blocks of ihs.trajectory_text: steps + 1 rows
BLOCK_STEPS = [0, 1, ihs.BLOCK - 1, ihs.BLOCK, ihs.BLOCK + 1,
               2 * ihs.BLOCK + 3]


# SHA-256 of each format's reports at BLOCK_STEPS in turn, for BLOCK =
# 1024: the text of the writer that formatted each row into one string
@pytest.mark.parametrize("system, x0, digests", [
    (oscillator, [0.6, -0.8], {
        "json":
            "d913d2ae9133b8b3330c54d8d12ec973e868084eb5eb3a14ee9be043f39bc944",
        "csv":
            "efb17ba3c5c6ef103d46bee775c7cbbf3f07f3e1561aa4b8661dfb1bf7f78338",
        "table":
            "aecc7fd6846366f07813fc3f5765f3e7dd5fede015ff31cc2d78c1695cab655d"}),
    (constrained_oscillator, [0.3, 0.5, -0.7, 0.25], {
        "json":
            "83d2784a3e9dfcd4bea91ee2731b310c8cd5fdbe6f117632bac4e4c0ef3d52f6",
        "csv":
            "cebee7395e6f6ffe613850fa417b1fc90676a8dc918dfceeebbcf19e1a86724e",
        "table":
            "856644f87505f2eef349a634ae89952864e3fde69023286d9a1ba633b309899a"}),
    (lambda: ihs.IHSystem(space_V(0), poly(0, "3/2")), [], {
        "json":
            "807c8a0314311808319bbccf40832f522503700d2a37f5863cbbcbc23430dcc9",
        "csv":
            "97a67568e804f0256ceeedddf4b042cd93c3e9930222555bd374d4aed54dd98f",
        "table":
            "d97ad965f14891ebd997a7c4a4f592947fabb404fb9c91faf13c67fa30f614b8"})],
    ids=["oscillator", "constrained", "zero"])
def test_reports_across_blocks_are_the_rowwise_text(system, x0, digests):
    sys_, got = system(), {fmt: hashlib.sha256() for fmt in digests}
    for steps in BLOCK_STEPS:
        traj = sys_.integrate(x0, steps)
        strs = [row.split("\0") for row in rowwise_trajectory_text(
            traj, "", "\0", "", "\n").split("\n")]
        assert len(strs) == steps + 1
        for fmt, text in assert_reports_render(traj, strs).items():
            got[fmt].update(text.encode())
    assert {fmt: h.hexdigest() for fmt, h in got.items()} == digests


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_emit_memory_does_not_grow_with_the_report(tmp_path, fmt):
    # the rows are formatted and written a block at a time: what _emit
    # allocates is the same at 10**4 and 4 * 10**4 steps, and under 2 KiB
    # a row of a block (a table row of 7 values takes about 1.4 KiB)
    sys_, peaks = constrained_oscillator(), []
    for steps in (10 ** 4, 4 * 10 ** 4):
        report = {"command": "ihs-run", "ok": True, "report": {
            "steps": steps,
            "trajectory": sys_.integrate([0.3, 0.5, -0.7, 0.25], steps)}}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._emit(report, argparse.Namespace(
                format=fmt, output=str(tmp_path / "report")))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024
    assert max(peaks) <= 2048 * ihs.BLOCK


@pytest.mark.parametrize("col, text", [
    ([0.3] * 4, "0.3"),
    ([1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)], "1"),
    ([0.0, 0.0], "0"), ([-0.0, -0.0], "-0"), ([0.0, -0.0, 0.0], None),
    ([-0.0, 0.0, -0.0], None), ([0.0, 5e-324, 0.0], None),
    ([2.0, math.nan, 2.0], None), ([math.nan, math.nan], None),
    ([math.inf] * 3, "inf"), ([-math.inf], "-inf"),
    ([math.inf, -math.inf, math.inf], None), ([0.1, 0.2, 0.1], None),
    ([-1e-5, 1e-5, -1e-5], None)])
def test_one_text(col, text):
    assert ihs._one_text(col) == text


class TestSerialization:
    def test_round_trip(self):
        sys_ = oscillator()
        obj = json.loads(json.dumps(system_to_json(sys_)))
        back = ihs.system_from_json(obj)
        assert back.H == sys_.H
        assert back.L.subspace == sys_.L.subspace
        r = back.velocity_solve([1.0, 2.0])
        assert np.allclose(r.xdot, [2.0, -1.0])

    def test_hamiltonian_terms(self):
        obj = system_to_json(oscillator())
        obj["H"] = [[[2, 0], "1"], [[0, 1], "0"], [[2, 0], "1/2"]]
        assert ihs.system_from_json(obj).H == poly(2, "1/2 x1^2")
        for bad in ([1, 0, 0], [-1, 2], [1.5, 0]):
            obj["H"] = [[bad, "1"]]
            with pytest.raises(ihs.BadPolynomial):
                ihs.system_from_json(obj)
