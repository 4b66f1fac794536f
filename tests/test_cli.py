"""Tests for the command-line front end: exit codes, report envelopes,
determinism, the CSV trajectory output, and the JSON writer and the
argv reader against json.dumps and the full parser."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diracdeform import (
    cli,
    courant,
    courant_theory,
    dirac_theory,
    ihs,
    jsonin,
    lie_deform,
    multilinear,
)
from diracdeform.brackets import BracketContext, darboux_residuals
from diracdeform.dirac_linear import from_bivector, subspace_to_json
from diracdeform.multilinear import MultiMap, base_gens, first_failing_triple
from diracdeform.ratlin import Subspace
from diracdeform.superalg import SuperElement, parse, phase_generators
import bracket_oracles
from ihs_oracles import system_to_json


SO3 = {"dim": 3, "c": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 1, "1"]]}
NONJACOBI = {"dim": 3, "c": [[0, 1, 2, "1"], [1, 2, 0, "1"],
                             [2, 0, 0, "1"]]}
FILIFORM_6 = {"dim": 6, "c": [[0, i, i + 1, "1"] for i in range(1, 5)]}
EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}
STD1 = courant_theory.standard_courant(1).to_json()
OSC = system_to_json(ihs.IHSystem(
    dirac_theory.canonical_symplectic(1), parse(base_gens(2), "1/2 x1^2 + 1/2 x2^2")))
# xdot has coefficient 10^10 dH/dx2, which overflows a float for big H
STIFF_L = system_to_json(ihs.IHSystem(
    from_bivector([[0, 10 ** 10], [-10 ** 10, 0]]), base_gens(2).zero()))["L"]
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(
    Path(__file__).resolve().parents[1] / "src"))


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheckJacobi:
    def test_so3_passes(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", SO3)
        code, out, _ = run(["check-jacobi", path], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] is True
        assert rep["command"] == "check-jacobi"
        assert rep["engine_version"]
        assert len(rep["input_hash"]) == 64

    def test_broken_constants_report_triple(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", NONJACOBI)
        code, out, _ = run(["check-jacobi", path], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["report"]["first_failing_triple"] == [0, 1, 2]

    def test_huge_structure_without_constants(self, tmp_path):
        # the Jacobi test walks the constants present, not the
        # C(dim, 3) basis triples
        path = write(tmp_path, "huge.json", {"dim": 100000, "c": []})
        p = subprocess.run(
            [sys.executable, "-m", "diracdeform.cli", "check-jacobi", path],
            capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=10)
        assert p.returncode == 0
        assert json.loads(p.stdout)["report"]["jacobi"] is True

    def test_dim_zero(self, tmp_path, capsys):
        path = write(tmp_path, "zero.json", {"dim": 0, "c": []})
        code, _, _ = run(["check-jacobi", path], capsys)
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(["check-jacobi", "/nonexistent.json"], capsys)
        assert code == 2
        assert "input error" in err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(["check-jacobi", str(p)], capsys)
        assert code == 2

    def test_schema_violation_names_path(self, tmp_path, capsys):
        path = write(tmp_path, "noc.json", {"dim": 3})
        code, _, err = run(["check-jacobi", path], capsys)
        assert code == 2
        assert ".c" in err


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", SO3)
        _, out1, _ = run(["check-jacobi", path], capsys)
        _, out2, _ = run(["check-jacobi", path], capsys)
        assert out1 == out2

    def test_seeded_rothstein_deterministic(self, capsys):
        args = ["rothstein-check", "--m", "2", "--k", "2", "--seed", "7"]
        code1, out1, _ = run(args, capsys)
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["seed"] == 7
        assert rep["report"]["all_zero"] is True
        assert all(v == "0" for v in rep["report"]["residuals"].values())

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", SO3)
        dest = tmp_path / "report.json"
        code, out, _ = run(["check-jacobi", path, "--output", str(dest)],
                           capsys)
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["ok"] is True

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_unwritable_stdout_exits_2(self, tmp_path, unbuffered):
        # buffered, the write fails at the flush; unbuffered, at the write
        env = {k: v for k, v in SUBPROCESS_ENV.items()
               if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            p = subprocess.run(
                [sys.executable, "-m", "diracdeform.cli", "check-jacobi",
                 write(tmp_path, "so3.json", SO3)], stdout=full,
                stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        assert p.returncode == 2
        assert p.stderr.startswith("input error: stdout: cannot write (")
        assert p.stderr.count("\n") == 1       # no traceback, nothing ignored


class TestCohomologyAndDeform:
    def test_so3_cohomology(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", SO3)
        code, out, _ = run(["ce-cohomology", path, "--degrees", "1", "2"],
                           capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["cohomology"] == {"H1": 0, "H2": 0}

    def test_cohomology_rejects_non_lie(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", NONJACOBI)
        code, out, _ = run(["ce-cohomology", path], capsys)
        assert code == 1

    def test_cohomology_checks_jacobi_once(self, tmp_path, capsys,
                                           monkeypatch):
        calls = []

        def counted(mu):
            calls.append(mu)
            return first_failing_triple(mu)

        monkeypatch.setattr(multilinear, "first_failing_triple", counted)
        path = write(tmp_path, "f6.json", FILIFORM_6)
        code, out, _ = run(["ce-cohomology", path, "--degrees", "1", "2",
                            "3"], capsys)
        assert code == 0
        assert json.loads(out)["report"]["cohomology"] == {
            "H1": 6, "H2": 12, "H3": 14}
        assert len(calls) == 1

    @pytest.mark.parametrize("data, code, body", [
        (FILIFORM_6, 0, None),
        (NONJACOBI, 1, {"error": "order-0 structure is not a Lie bracket"}),
    ])
    def test_deform_lie_checks_jacobi_once(self, tmp_path, capsys,
                                           monkeypatch, data, code, body):
        calls = []

        def counted(mu):
            calls.append(mu)
            return first_failing_triple(mu)

        monkeypatch.setattr(multilinear, "first_failing_triple", counted)
        path = write(tmp_path, "mu.json", data)
        got, out, _ = run(["deform-lie", path, "--order", "3"], capsys)
        assert got == code
        assert len(calls) == 1
        if body is not None:
            assert json.loads(out)["report"] == body

    def test_deform_lie_builds_no_basis(self, tmp_path, capsys,
                                        monkeypatch):
        # from mu alone every R_n is 0, which is solved by zero: no unit
        # cochain and no column of delta^2 is built
        built = []
        for name in ("_unit_cochains", "_delta_columns"):
            def counted(*args, f=getattr(lie_deform, name), name=name):
                built.append(name)
                return f(*args)
            monkeypatch.setattr(lie_deform, name, counted)
        path = write(tmp_path, "f6.json", FILIFORM_6)
        code, out, _ = run(["deform-lie", path, "--order", "3"], capsys)
        assert code == 0
        assert json.loads(out)["report"]["reached_order"] == 3
        assert built == []

    def test_deform_lie_certificates(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", SO3)
        code, out, _ = run(["deform-lie", path, "--order", "3"], capsys)
        assert code == 0
        rep = json.loads(out)
        rows = rep["report"]["certificates"]
        assert [r["order"] for r in rows] == [1, 2, 3]
        assert all(r["extends"] for r in rows)


class TestDiracLinear:
    def test_valid_structure(self, tmp_path, capsys):
        path = write(tmp_path, "d.json",
                     {"n": 2, "subspace": [["1", "0", "0", "1"],
                                           ["0", "1", "-1", "0"]]})
        code, out, _ = run(["dirac-linear", path], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["dim"] == 2

    def test_two_form_input(self, tmp_path, capsys):
        path = write(tmp_path, "d.json",
                     {"n": 2, "two_form": [["0", "1"], ["-1", "0"]]})
        code, out, _ = run(["dirac-linear", path], capsys)
        assert code == 0
        assert json.loads(out)["report"]["range_dim"] == 2

    def test_invalid_structure(self, tmp_path, capsys):
        path = write(tmp_path, "d.json",
                     {"n": 2, "subspace": [["1", "0", "0", "1"],
                                           ["0", "1", "1", "0"]]})
        code, out, _ = run(["dirac-linear", path], capsys)
        assert code == 1
        assert "violation" in json.loads(out)["report"]

    def test_missing_representation(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", {"n": 2})
        code, _, err = run(["dirac-linear", path], capsys)
        assert code == 2

    def test_range_and_kernel_are_those_of_represent(self, tmp_path, capsys):
        # the report reads R and L cap V off L directly, and
        # dirac_theory.represent classifies L in full: they must agree
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(0, 4)
            R = Subspace(n, [[rng.randint(-2, 2) for _ in range(n)]
                             for _ in range(rng.randint(0, n))])
            Omega = [[0] * R.dim for _ in range(R.dim)]
            for a in range(R.dim):
                for b in range(a + 1, R.dim):
                    Omega[a][b] = Fraction(rng.randint(-3, 3), 2)
                    Omega[b][a] = -Omega[a][b]
            L = dirac_theory.from_R_Omega(R, Omega)
            path = write(tmp_path, "d.json", {"n": n, "subspace": (
                subspace_to_json(L.subspace)["basis"])})
            code, out, _ = run(["dirac-linear", path], capsys)
            assert code == 0
            body = json.loads(out)["report"]
            rep = dirac_theory.represent(L)
            assert body["range"] == subspace_to_json(rep["R"])
            assert body["kernel"] == subspace_to_json(rep["K"])
            assert (body["range_dim"], body["kernel_dim"]) == \
                (rep["R"].dim, rep["K"].dim)


class TestCourantCommands:
    def test_verify_so3_double(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", courant_theory.so3_double().to_json())
        code, out, _ = run(["courant-verify", path], capsys)
        assert code == 0
        assert json.loads(out)["report"]["identities"]["master"]["ok"]

    def test_verify_failure(self, tmp_path, capsys):
        bad = courant.CourantInput(
            0, 3, c={(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 0): 1})
        path = write(tmp_path, "c.json", bad.to_json())
        code, out, _ = run(["courant-verify", path], capsys)
        assert code == 1

    def test_theta_master(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", courant_theory.so3_double().to_json())
        code, out, _ = run(["theta-master", path], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["master_zero"] is True
        assert rep["report"]["components"] == {}

    def test_deform_dirac_extends(self, tmp_path, capsys):
        path = write(tmp_path, "dd.json",
                     {"courant": courant_theory.so3_double().to_json(),
                      "prefix": ["1 a^1 a^2"]})
        code, out, _ = run(["deform-dirac", path, "--order", "3"], capsys)
        assert code == 0
        rows = json.loads(out)["report"]["certificates"]
        assert all(r["status"] == "EXTENDS" for r in rows)

    def test_deform_dirac_obstruction(self, tmp_path, capsys):
        inp = courant_theory.lie_bialgebra({}, EPS, 3)
        path = write(tmp_path, "dd.json",
                     {"courant": inp.to_json(), "prefix": ["1 a^1 a^2"]})
        code, out, _ = run(["deform-dirac", path, "--order", "3"], capsys)
        assert code == 1
        rows = json.loads(out)["report"]["certificates"]
        assert rows[-1]["status"] == "OBSTRUCTED"
        assert rows[-1]["cocycle"] != "0"


    @pytest.mark.parametrize("order", ["0", "1", "2"])
    def test_deform_dirac_checks_prefix_at_every_order(self, tmp_path,
                                                       capsys, order):
        # q3 a^1 a^2 is not d_L-closed, so the order-1 equation fails
        path = write(tmp_path, "dd.json",
                     {"courant": courant_theory.standard_courant(3).to_json(),
                      "prefix": ["q3 a^1 a^2"]})
        code, out, _ = run(["deform-dirac", path, "--order", order], capsys)
        assert code == 1
        assert json.loads(out)["report"]["violation"] == "PreconditionMC"


class TestIhsRun:
    def osc_path(self, tmp_path):
        sys_ = ihs.IHSystem(dirac_theory.canonical_symplectic(1),
                            parse(base_gens(2), "1/2 x1^2 + 1/2 x2^2"))
        return write(tmp_path, "osc.json", system_to_json(sys_))

    def test_csv_output(self, tmp_path, capsys):
        path = self.osc_path(tmp_path)
        code, out, _ = run(["ihs-run", "--system", path, "--x0", "1,0",
                            "--steps", "10", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x1,x2,H,residual"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(0.5)

    def test_json_report(self, tmp_path, capsys):
        path = self.osc_path(tmp_path)
        code, out, _ = run(["ihs-run", "--system", path, "--x0", "1,0",
                            "--steps", "100"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["max_drift"] < 1e-9

    def test_left_admissible_set(self, tmp_path, capsys):
        from diracdeform.dirac_theory import space_V
        sys_ = ihs.IHSystem(space_V(2), parse(base_gens(2), "1 x1"))
        path = write(tmp_path, "sys.json", system_to_json(sys_))
        code, out, _ = run(["ihs-run", "--system", path, "--x0", "0,0",
                            "--steps", "5"], capsys)
        assert code == 1
        assert json.loads(out)["report"]["status"] == "LEFT_ADMISSIBLE_SET"

    def test_negative_x0_needs_the_equals_form(self, tmp_path, capsys,
                                               monkeypatch):
        # argparse reads a spaced "-1,0" as an option; the help says so
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as e:
            cli.main(["ihs-run", "--help"])
        assert e.value.code == 0
        assert "--x0=-1,0" in capsys.readouterr().out
        path = self.osc_path(tmp_path)
        code, out, _ = run(["ihs-run", "--system", path, "--x0=-1,0",
                            "--steps", "10"], capsys)
        assert code == 0
        assert json.loads(out)["report"]["trajectory"][0][1:3] == ["-1", "0"]

    def test_bad_x0(self, tmp_path, capsys):
        path = self.osc_path(tmp_path)
        code, _, err = run(["ihs-run", "--system", path, "--x0", "1,2,3",
                            "--steps", "5"], capsys)
        assert code == 2


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("system, extra", [
    (OSC, []),
    (OSC, ["--h", "0.01"]),
    ({**OSC, "h": 0.005}, []),
    (OSC, ["--h", "0"]),
    (OSC, ["--h", "nan"]),
    (OSC, ["--h", "inf"]),
    (OSC, ["--h", "-1"]),
    ({**OSC, "tol": float("nan")}, []),
    ({**OSC, "h": float("nan")}, []),
])
def test_ihs_run_output_is_strict_json(tmp_path, capsys, system, extra):
    argv = ["ihs-run", "--system", write(tmp_path, "sys.json", system),
            "--x0", "1,0", "--steps", "20"] + extra
    code, out, _ = run(argv, capsys)
    if code == 2:
        assert out == ""
        return
    body = strict_json(out)["report"]
    # the report names the step the trajectory was integrated with
    h = float(extra[1]) if extra else system["h"]
    assert body["h"] == h
    assert float(body["trajectory"][1][0]) == pytest.approx(h, rel=1e-11)


QUARTIC = system_to_json(ihs.IHSystem(
    dirac_theory.canonical_symplectic(1), parse(base_gens(2), "x1^4 + x2^4")))


@pytest.mark.parametrize("system, x0, steps", [
    (QUARTIC, "1e30,1", "20"),      # a power overflows mid-step
    (QUARTIC, "1e100,1", "20"),     # the initial energy overflows
    # H overflows to inf without an exception; dH and the state stay finite
    ({**QUARTIC, "H": [[[2, 0], "1e300"]]}, "1e5,0", "20"),
    # dH overflows at the final point, whose solve no stage makes
    ({**QUARTIC, "H": [[[2, 0], "8e307"]]}, "1.2,0", "0"),
    # the state overflows inside the RK4 arithmetic
    ({**OSC, "h": 1e200}, "1,0", "3"),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ihs_run_divergence_is_a_failure_report(tmp_path, system, x0, steps,
                                                fmt):
    argv = ["ihs-run", "--system", write(tmp_path, "sys.json", system),
            "--x0", x0, "--steps", steps, "--format", fmt]
    p = subprocess.run([sys.executable, "-m", "diracdeform.cli"] + argv,
                       capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert p.returncode == 1
    assert "Traceback" not in p.stderr
    assert p.stderr == ""
    assert strict_json(p.stdout)["report"]["status"] == "LEFT_ADMISSIBLE_SET"


CANONICAL_L = {"n": 2, "subspace": {"ambient": 4, "basis": [
    ["1", "0", "0", "1"], ["0", "1", "-1", "0"]]}}
# the constrained systems of the bench (x2, x4 frozen) and of the
# kernel-direction tests (P != 0: dH/dx3 = x2^2 x3 is a constraint row)
PINNED_SYSTEMS = {
    "oscillator": ({"n": 2, "L": CANONICAL_L,
                    "H": [[[0, 2], "1/2"], [[2, 0], "1/2"]]}, "0.6,-0.8"),
    "constrained": ({"n": 4, "L": {"n": 4, "subspace": {"ambient": 8, "basis": [
        ["1", "0", "0", "0", "0", "0", "1", "0"],
        ["0", "0", "1", "0", "-1", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "1"]]}},
        "H": [[[0, 0, 2, 0], "1/2"], [[0, 2, 0, 0], "1/2"],
              [[2, 0, 0, 0], "1/2"]]}, "0.3,0.5,-0.7,0.25"),
    "kernel": ({"n": 3, "L": {"n": 3, "subspace": {"ambient": 6, "basis": [
        ["0", "1", "0", "1", "0", "0"], ["-1", "0", "0", "0", "1", "0"],
        ["0", "0", "1", "0", "0", "0"]]}},
        "H": [[[2, 0, 0], "1/2"], [[0, 2, 0], "1/2"], [[0, 2, 2], "1/2"]]},
        "0.3,-0.7,1e-12"),
    "quartic": ({"n": 2, "L": CANONICAL_L,
                 "H": [[[4, 0], "1"], [[0, 4], "1"]]}, "0.5,-0.25"),
}


# SHA-256 of the complete ihs-run reports for --steps 2000: any change
# to the integrator's float arithmetic or to the row formatting shows
@pytest.mark.parametrize("name, fmt, digest", [
    ("oscillator", "json",
     "0492d678be68e0bfa3c7a6356333d6c40f31c02042aa1e4f397f87fd1fb9365b"),
    ("oscillator", "csv",
     "ef96d2de9161f9d2acabfee6aa6f76e6936533f1e43ff5f3b5c2007fcb35d268"),
    ("oscillator", "table",
     "42b041618a9af78fefee6373a1a7b57dc7181100b7435147459e713c695f2bd5"),
    ("constrained", "json",
     "7853e9123335b3db6d3ffe3412d5b3ca0c6776f4b2ef1a58b402483b3a5d6ff6"),
    ("constrained", "csv",
     "87bb702e3e36ece4972b80e86707f6b31274fe2e39bc8dcc59ef560512538ec7"),
    ("kernel", "json",
     "3812cf67c857f625edec6241bd2c2e632a8dd8ad53f87da82251f74e3186da31"),
    ("kernel", "csv",
     "4e267e8e5e5ef0f4ac170fac1c64929a639c743fd16581472bcc15ba41e6c62e"),
    ("quartic", "json",
     "93b112fa83ee07d8686ab85c124241f05f9eba1f1e758e4484867151c617f238"),
    ("quartic", "csv",
     "a210958e11a7f23765799745216b31c06bd9c212e15c5af4b499f923047820c6"),
])
def test_ihs_run_reports_pinned(tmp_path, name, fmt, digest):
    system, x0 = PINNED_SYSTEMS[name]
    out = tmp_path / "report"
    code = cli.main(["ihs-run", "--system", write(tmp_path, "sys.json", system),
                     "--x0", x0, "--steps", "2000", "--format", fmt,
                     "--output", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTableFormat:
    def test_table_rendering(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", SO3)
        code, out, _ = run(["check-jacobi", path, "--format", "table"],
                           capsys)
        assert code == 0
        assert "ok = True" in out
        assert "command = check-jacobi" in out

    def test_table_is_pure_rendering(self, tmp_path, capsys):
        path = write(tmp_path, "so3.json", SO3)
        _, js, _ = run(["check-jacobi", path], capsys)
        _, tb, _ = run(["check-jacobi", path, "--format", "table"], capsys)
        rep = json.loads(js)
        assert f"report.dim = {rep['report']['dim']}" in tb


@pytest.mark.parametrize("command, data, extra, path", [
    ("check-jacobi", {"dim": 3, "c": "x"}, [], "$.c"),
    ("ce-cohomology", {"dim": 3, "c": "x"}, [], "$.c"),
    ("deform-lie", {"dim": 3, "c": "x"}, [], "$.c"),
    ("ce-cohomology", {"dim": -1, "c": []}, [], "$.dim"),
    ("ce-cohomology", {"dim": 3, "c": [[0, 1, 2]]}, [], "$.c[0]"),
    ("ce-cohomology", {"dim": 3, "c": [[0, 1, 5, 1]]}, [], "$.c[0][2]"),
    ("deform-lie", {"dim": 3, "c": [[0, -2, -1, 1]]}, [], "$.c[0][1]"),
    ("check-jacobi", {"dim": 3, "c": [[0, 1, 2, "1/0"]]}, [], "$.c[0][3]"),
    ("ce-cohomology", SO3, ["--degrees", "-1"], "--degrees"),
    ("deform-lie", SO3, ["--order", "-3"], "--order"),
    ("dirac-linear", 5, [], "in.json"),
    ("deform-dirac", 5, [], "in.json"),
    ("deform-dirac", {"courant": STD1, "prefix": []}, ["--order", "-2"],
     "--order"),
    ("deform-dirac", {"courant": STD1, "prefix": []},
     ["--degree-cap", "-1"], "--degree-cap"),
    ("courant-verify", STD1, ["--degree", "-1"], "--degree"),
    ("courant-verify", STD1, ["--section-limit", "-1"], "--section-limit"),
    ("rothstein-check", None, ["--m", "-1"], "--m"),
    ("rothstein-check", None, ["--k", "-1"], "--k"),
    ("ihs-run", None, ["--system", "sys.json", "--x0", "0,0",
                       "--steps", "-3"], "--steps"),
    ("courant-verify", {"m": -1, "k": 2}, [], "$.m"),
    ("courant-verify", {"m": 0, "k": -2}, [], "$.k"),
    ("courant-verify", {"m": True, "k": 1}, [], "$.m"),
    ("theta-master", {"m": -1, "k": 2}, [], "$.m"),
    ("theta-master", {"m": 0, "k": -2}, [], "$.k"),
    ("theta-master", {"m": True, "k": 1}, [], "$.m"),
    ("deform-dirac", {"courant": {"m": 1, "k": 2.0}, "prefix": []}, [],
     "$.courant.k"),
    ("ihs-run", {**OSC, "h": "abc"}, ["--x0", "0,0"], "$.h"),
    ("ihs-run", {**OSC, "h": -0.001}, ["--x0", "0,0"], "$.h"),
    ("ihs-run", {**OSC, "h": 0}, ["--x0", "0,0"], "$.h"),
    ("ihs-run", {**OSC, "h": True}, ["--x0", "0,0"], "$.h"),
    ("ihs-run", {**OSC, "h": float("inf")}, ["--x0", "0,0"], "$.h"),
    ("ihs-run", {**OSC, "tol": "x"}, ["--x0", "0,0"], "$.tol"),
    ("ihs-run", {**OSC, "tol": float("nan")}, ["--x0", "0,0"], "$.tol"),
    ("ihs-run", {**OSC, "H": [[[2, 0], "1/2"], [[0, 2], "1/0"]]},
     ["--x0", "0,0"], "$.H[1]"),
    ("ihs-run", {**OSC, "H": [[[2, 0], None]]}, ["--x0", "0,0"], "$.H[0]"),
    ("ihs-run", {**OSC, "H": [[[2, 0], "1e400"]]}, ["--x0", "0,0"],
     "$.H[0]"),
    ("ihs-run", {**OSC, "H": [[[2, 0, 1], "1"]]}, ["--x0", "0,0"],
     "$.H[0]"),
    ("ihs-run", {**OSC, "H": [[[2, 0]]]}, ["--x0", "0,0"], "$.H[0]"),
    ("ihs-run", {**OSC, "H": [[[0, 1], "1"], [2, "1"]]}, ["--x0", "0,0"],
     "$.H[1]"),
    ("ihs-run", OSC, ["--x0=1e400,0"], "--x0"),
    ("ihs-run", OSC, ["--x0=1/0,0"], "--x0"),
    ("ihs-run", OSC, ["--x0", "0,0", "--h", "0"], "--h"),
    ("ihs-run", OSC, ["--x0", "0,0", "--h", "-1"], "--h"),
    ("ihs-run", OSC, ["--x0", "0,0", "--h", "nan"], "--h"),
    ("ihs-run", OSC, ["--x0", "0,0", "--h", "inf"], "--h"),
    ("ihs-run", {**OSC, "n": 7}, ["--x0", "0,0"], "$.n"),
    ("ihs-run", {**OSC, "n": -1}, ["--x0", "0,0"], "$.n"),
    ("ihs-run", {**OSC, "n": 2.0}, ["--x0", "0,0"], "$.n"),
    ("ihs-run", {**OSC, "n": True}, ["--x0", "0,0"], "$.n"),
    ("ihs-run", {k: v for k, v in OSC.items() if k != "n"}, ["--x0", "0,0"],
     "$.n"),
    ("ihs-run", {**OSC, "steps": 5}, ["--x0", "0,0"], "$.steps"),
    ("check-jacobi", {**SO3, "name": "so3"}, [], "$.name"),
    ("ce-cohomology", {**SO3, "degrees": [1]}, [], "$.degrees"),
    ("deform-lie", {**SO3, "order": 3}, [], "$.order"),
    ("ihs-run", {**OSC, "H": [[[2, 0], "1e308"]]}, ["--x0", "0,0"],
     "$.H[0]"),
    # each input below gave a traceback or exit 0 before the loaders
    # shared the jsonin readers
    ("dirac-linear", {"n": 1, "bivector": [["x"]]}, [], "$.bivector[0][0]"),
    ("dirac-linear", {"n": 1, "bivector": [[None]]}, [], "$.bivector[0][0]"),
    ("dirac-linear", {"n": 1, "subspace": "abc"}, [], "$.subspace"),
    ("dirac-linear", {"n": 2, "bivector": [["0"]]}, [], "$.bivector"),
    ("dirac-linear", {"n": 2, "two_form": [["0", "1"], ["-1", "0"]],
                      "bivector": [["0", "1"], ["-1", "0"]]}, [], "$"),
    ("dirac-linear", {"n": 1, "bivector": [["0"]], "junk": 1}, [],
     "$.junk"),
    ("courant-verify", {"m": 1, "k": 1, "rho": [[0]]}, [], "$.rho[0]"),
    ("courant-verify", {"m": 1, "k": 1, "rho": [[0.5, 0, "1"]]}, [],
     "$.rho[0][0]"),
    ("courant-verify", {**STD1, "junk": 1}, [], "$.junk"),
    ("theta-master", {**STD1, "junk": 1}, [], "$.junk"),
    ("deform-dirac", {"courant": STD1, "prefix": [5]}, [], "$.prefix[0]"),
    ("deform-dirac", {"courant": STD1, "prefix": [], "junk": 1}, [],
     "$.junk"),
    # the readers name the full path of the bad value
    ("courant-verify", {"m": 1, "k": 1, "rho": [[1, 0, "1"]]}, [],
     "$.rho[0][0]"),
    ("courant-verify", {"m": 1, "k": 1, "c": [[0, 0, 1, "1"]]}, [],
     "$.c[0][2]"),
    ("courant-verify", {"m": 1, "k": 1, "rho": [[0, 0, 0.5]]}, [],
     "$.rho[0][2]"),
    ("courant-verify", {"m": 1, "k": 1, "rho": [[0, 0, "1 zz"]]}, [],
     "$.rho[0][2]"),
    ("courant-verify", {"m": 1, "k": 1, "rho": [[0, 0, "1/0 q1"]]}, [],
     "$.rho[0][2]"),
    ("theta-master", {"m": 1, "k": 1, "rho": [[0, 0, "1 p_1"]]}, [],
     "$.rho[0][2]"),
    ("deform-dirac", {"courant": {**STD1, "junk": 1}, "prefix": []}, [],
     "$.courant.junk"),
    ("deform-dirac", {"courant": STD1, "prefix": ["1/0 a^1"]}, [],
     "$.prefix[0]"),
    ("check-jacobi", {"dim": 3, "c": [[0, 1, 2, 0.5]]}, [], "$.c[0][3]"),
    ("ihs-run", {**OSC, "L": {**OSC["L"], "subspace": {
        "ambient": 4, "basis": [["x", "0", "0", "1"]]}}}, ["--x0", "0,0"],
     "$.L.subspace.basis[0][0]"),
    ("ihs-run", {**OSC, "L": {**OSC["L"], "subspace": {
        "ambient": 4, "basis": [["1", "0", "0", "0"],
                                ["0", "1", "0", "1"]]}}}, ["--x0", "0,0"],
     "$.L"),
    ("ihs-run", {**OSC, "L": {**OSC["L"], "junk": 1}}, ["--x0", "0,0"],
     "$.L.junk"),
    ("check-jacobi", SO3, ["--output", "/nonexistent/dir/r.json"],
     "--output"),
    ("ihs-run", {**OSC, "L": STIFF_L, "H": [[[0, 2], "1e300"]]},
     ["--x0", "0,0"], "$"),
    # cochain bases too large to list: C(dim, k) * dim > MAX_COCHAINS
    ("ce-cohomology", {"dim": 100000, "c": []}, [], "$.dim"),
    ("deform-lie", {"dim": 100000, "c": []}, [], "$.dim"),
    ("ce-cohomology", {"dim": 60, "c": []}, ["--degrees", "3"], "$.dim"),
    # a prefix entry must be a 2-form in the upper generators: a 3-form
    # and a 1-form were certified EXTENDS at orders 2 and 3
    ("deform-dirac", {"courant": {"m": 0, "k": 3, "c": []},
                      "prefix": ["a^1 a^2 a^3"]}, [], "$.prefix[0]"),
    ("deform-dirac", {"courant": {"m": 1, "k": 1}, "prefix": ["a^1"]}, [],
     "$.prefix[0]"),
    ("deform-dirac", {"courant": {"m": 1, "k": 2},
                      "prefix": ["a^1 a^2", "p_1 a^1 a^2"]}, [],
     "$.prefix[1]"),
    # more steps than MAX_STEPS: a report of more than about 150 MB
    ("ihs-run", OSC, ["--x0", "0,0", "--steps", str(cli.MAX_STEPS + 1)],
     "--steps"),
    # more base coordinates or odd pairs than MAX_PHASE
    ("rothstein-check", None, ["--m", str(cli.MAX_PHASE + 1)], "--m"),
    ("rothstein-check", None, ["--k", str(cli.MAX_PHASE + 1)], "--k"),
    # more orders than MAX_ORDER
    ("deform-lie", SO3, ["--order", str(cli.MAX_ORDER + 1)], "--order"),
    ("deform-dirac", {"courant": STD1, "prefix": []},
     ["--order", str(cli.MAX_ORDER + 1)], "--order"),
])
def test_input_errors_exit_2_naming_path(tmp_path, command, data, extra,
                                        path):
    # data None: the command takes no input file; ihs-run takes its
    # input file as --system
    inputs = [] if data is None else [write(tmp_path, "in.json", data)]
    if command == "ihs-run" and inputs:
        inputs.insert(0, "--system")
    p = subprocess.run(
        [sys.executable, "-m", "diracdeform.cli", command] + inputs + extra,
        capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60)
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert f"{path}:" in p.stderr


@pytest.mark.parametrize("command, data, extra, path", [
    ("check-jacobi", {"dim": 3, "c": [[0, 1, 2, "1e30000000"]]}, [],
     "$.c[0][3]"),
    ("check-jacobi", {"dim": 3, "c": [[0, 1, 2, " -2.5E-3_0000_000 "]]}, [],
     "$.c[0][3]"),
    ("dirac-linear", {"n": 1, "bivector": [["1e4301"]]}, [],
     "$.bivector[0][0]"),
    ("ihs-run", {**OSC, "H": [[[0, 2], "1e99999"]]}, ["--x0=0,0"],
     "$.H[0]"),
    ("ihs-run", OSC, ["--x0=1e30000000,0"], "--x0"),
    ("ihs-run", OSC, ["--x0=0,1e-0004301"], "--x0"),
])
def test_huge_decimal_exponents_exit_2_at_once(tmp_path, capsys, command,
                                               data, extra, path):
    # Fraction would compute 10 ** |exponent| first: 51 s for 1e30000000
    inputs = [write(tmp_path, "in.json", data)]
    if command == "ihs-run":
        inputs.insert(0, "--system")
    start = time.perf_counter()
    code, out, err = run([command] + inputs + extra, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"{path}: not a rational (a decimal exponent beyond 4300" in err


@pytest.mark.parametrize("steps", [cli.MAX_STEPS + 1, 10 ** 30])
def test_steps_beyond_the_bound_exit_2_before_reading(tmp_path, capsys,
                                                      steps):
    # the system file does not exist: --steps is refused before it is read
    code, out, err = run(["ihs-run", "--system", str(tmp_path / "none.json"),
                          "--x0", "1,0", "--steps", str(steps)], capsys)
    assert code == 2 and out == ""
    assert err == f"input error: --steps: {steps} is more than " \
                  f"{cli.MAX_STEPS}\n"


@pytest.mark.parametrize("command", ["deform-lie", "deform-dirac"])
@pytest.mark.parametrize("order", [cli.MAX_ORDER + 1, 10 ** 30])
def test_order_beyond_the_bound_exits_2_before_reading(tmp_path, capsys,
                                                       command, order):
    # the input file does not exist: --order is refused before it is read
    code, out, err = run([command, str(tmp_path / "none.json"), "--order",
                          str(order)], capsys)
    assert code == 2 and out == ""
    assert err == f"input error: --order: {order} is more than " \
                  f"{cli.MAX_ORDER}\n"


def test_order_at_the_bound_is_accepted(tmp_path, capsys, monkeypatch):
    orders = []

    def series(coeffs, order):
        orders.append(order)
        return coeffs, []

    monkeypatch.setattr(cli, "extend_series", series)
    path = write(tmp_path, "so3.json", SO3)
    code, _, _ = run(["deform-lie", path, "--order", str(cli.MAX_ORDER)],
                     capsys)
    assert code == 0 and orders == [cli.MAX_ORDER]


@pytest.mark.parametrize("command, data, cls", [
    ("deform-lie", SO3, MultiMap),
    ("deform-dirac", {"courant": courant_theory.so3_double().to_json(),
                      "prefix": ["a^1 a^2"]}, SuperElement)])
def test_zero_tests_grow_linearly_with_the_order(tmp_path, capsys,
                                                 monkeypatch, command, data,
                                                 cls):
    # every R_n from order 3 on is 0 here.  Each coefficient is tested
    # for zero once, when it is solved, and a right-hand side visits only
    # the nonzero ones, so each order adds the same number of is_zero
    # calls; testing the earlier orders at each order would make the
    # count quadratic in the order
    calls = []
    is_zero = cls.is_zero

    def counted(self):
        calls.append(1)
        return is_zero(self)

    monkeypatch.setattr(cls, "is_zero", counted)
    path = write(tmp_path, "in.json", data)
    counts = []
    for order in (100, 200, 400):
        del calls[:]
        code, _, _ = run([command, path, "--order", str(order)], capsys)
        assert code == 0
        counts.append(len(calls))
    per_order = (counts[1] - counts[0]) / 100
    assert counts[2] - counts[1] == 200 * per_order
    assert 0 < per_order <= 4


@pytest.mark.parametrize("option", ["--m", "--k"])
def test_phase_counts_beyond_the_bound_exit_2_before_building(
        capsys, monkeypatch, option):
    def refuse(*args):
        raise AssertionError("generators built")

    argv = ["rothstein-check", "--m", str(cli.MAX_PHASE), "--k", "0"]
    assert run(argv, capsys)[0] == 0
    monkeypatch.setattr(cli, "phase_generators", refuse)
    argv = ["rothstein-check", "--m", "1", "--k", "1"]
    argv[argv.index(option) + 1] = str(10 ** 30)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"input error: {option}: {10 ** 30} is more than " \
                  f"{cli.MAX_PHASE}\n"


@pytest.mark.parametrize("m, k", [(1, 1), (2, 2), (3, 3), (2, 3),
                                  (3, 1), (0, 2), (2, 0)])
def test_rothstein_table_matches_the_per_pair_oracle(m, k):
    """The table of rothstein-check, each operand differentiated once,
    against the per-pair body it replaced: on the Darboux momenta of
    the command's connections, where every entry is 0, and on perturbed
    momenta, where entries are not."""
    for seed in range(4):
        rng = random.Random(seed)
        gens = phase_generators(m, k)
        ctx = BracketContext.rothstein_on(
            cli._random_connection(rng, gens, m, k))
        assert darboux_residuals(ctx) \
            == bracket_oracles.darboux_residuals(ctx)
        factors = [gens.gen(x) for x in gens.even + gens.odd]
        momenta = factors[m:2 * m] or factors
        bumped = [r + rng.randint(1, 2) * rng.choice(momenta)
                  * rng.choice(factors) for r in ctx.darboux_momenta()]
        ctx.darboux_momenta = lambda: bumped
        got = darboux_residuals(ctx)
        assert got == bracket_oracles.darboux_residuals(ctx)
        assert m == 0 or any(not v.is_zero() for v in got.values())


@pytest.mark.parametrize("text, value", [
    ("1e4300", Fraction(10 ** 4300)), ("-1E-4300", Fraction(-1, 10 ** 4300)),
    ("2.5e+04300", Fraction(25 * 10 ** 4299)), ("1e0", Fraction(1)),
    ("3/4", Fraction(3, 4))])
def test_rational_takes_exponents_up_to_the_bound(text, value):
    assert jsonin.rational(text, "$") == value


def test_import_does_not_load_scipy():
    p = subprocess.run(
        [sys.executable, "-c", "import sys, diracdeform.cli; "
         "print(any(m.split('.')[0] in ('scipy', 'numpy') "
         "for m in sys.modules))"],
        capture_output=True, text=True, env=SUBPROCESS_ENV, check=True)
    assert p.stdout.strip() == "False"


SO3_DOUBLE = courant_theory.so3_double().to_json()


# one short job per subcommand
ONE_JOB_EACH = [
    ("check-jacobi", SO3, []),
    ("ce-cohomology", SO3, ["--degrees", "1"]),
    ("deform-lie", SO3, ["--order", "1"]),
    ("dirac-linear", {"n": 1, "bivector": [["0"]]}, []),
    ("courant-verify", SO3_DOUBLE, []),
    ("theta-master", SO3_DOUBLE, []),
    ("deform-dirac", {"courant": SO3_DOUBLE, "prefix": ["1 a^1 a^2"]},
     ["--order", "1"]),
    ("rothstein-check", None, ["--m", "1", "--k", "1"]),
    ("ihs-run", OSC, ["--x0", "1,0", "--steps", "3"]),
]


def run_job(tmp_path, command, data, extra, script):
    """Run script in a fresh interpreter with the job's argv."""
    inputs = [] if data is None else [write(tmp_path, "in.json", data)]
    if command == "ihs-run":
        inputs.insert(0, "--system")
    return subprocess.run([sys.executable, "-c", script, command] + inputs
                          + extra, capture_output=True, text=True,
                          env=SUBPROCESS_ENV)


@pytest.mark.parametrize("command, data, extra", ONE_JOB_EACH)
def test_commands_do_not_load_numpy(tmp_path, command, data, extra):
    script = ("import sys\nfrom diracdeform import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "sys.stderr.write(f'{code} {\"numpy\" in sys.modules}')\n")
    p = run_job(tmp_path, command, data, extra, script)
    assert p.stderr == "0 False"


HELP_SCRIPT = """
import io, sys
from contextlib import redirect_stdout
from diracdeform import cli

code = cli.main(sys.argv[1:])
loaded = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]


def help_text(parse):
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            parse([sys.argv[1], "--help"])
        except SystemExit as e:
            assert e.code == 0
    return out.getvalue()


text = help_text(cli.main)
same = text.startswith("usage: diracdeform " + sys.argv[1]) and (
    text == help_text(cli.build_parser().parse_args))
sys.stderr.write(f"{code} {loaded} {same}")
"""


@pytest.mark.parametrize("command, data, extra", ONE_JOB_EACH)
def test_commands_do_not_import_argparse(tmp_path, command, data, extra):
    # a job is read without argparse (whose first use imports gettext and
    # locale); --help is then the full parser's
    p = run_job(tmp_path, command, data, extra, HELP_SCRIPT)
    assert p.stderr == "0 [] True"


# SHA-256 of json.dumps(report body, sort_keys=True) for the deformation
# reports; the same values are recorded in perfbench/workloads.py (BODY).
@pytest.mark.parametrize("command, data, extra, digest", [
    ("deform-lie", SO3, [],
     "ad4474f9849ce494ef44197ee9839bba61c3817d046dceca36a940c956f03909"),
    ("deform-lie", FILIFORM_6, ["--order", "3"],
     "44c79b2d313bb28f4b5eeb95fa4046b82c2d418fcecb2f49c01ac0bb5532eab8"),
    ("deform-dirac", {"courant": courant_theory.so3_double().to_json(),
                      "prefix": ["a^1 a^2"]}, ["--order", "3"],
     "6ad3f2c6cd1d2e1f0bdad38d10a61770b45858a3bbc9149ff9937b2ee8cabd09"),
    ("deform-dirac", {"courant": courant_theory.lie_bialgebra({}, EPS, 3).to_json(),
                      "prefix": ["a^1 a^2"]}, ["--order", "3"],
     "3d6e863b211379f801ebb4348180a3b712749ffe5f412d2b4ebe744bbb8ab80c"),
])
def test_deform_report_bodies_pinned(tmp_path, capsys, command, data, extra,
                                     digest):
    _, out, _ = run([command, write(tmp_path, "in.json", data)] + extra,
                    capsys)
    body = json.loads(out)["report"]
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()
                          ).hexdigest() == digest


# Complete courant-verify reports of failing inputs, recorded from the
# unmemoized axiom loops: the memoized loops must keep every failure list
# and its order byte for byte.
BROKEN_ANCHOR = {"m": 1, "k": 1, "rho": [[0, 0, "1"]],
                 "rho_bar": [[0, 0, "1 q1"]]}
NONJACOBI_SO3 = courant.CourantInput(
    0, 3, c={(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 0): 1}).to_json()
# anchors on both halves and a curved connection (R_{q1 q2} != 0): the
# p_1 p_2 curvature row of the Rothstein table cancels a term of
# {Theta, Theta} that is there without it
CURVED_BOTH = {"m": 2, "k": 2, "rho": [[0, 0, "1"], [1, 1, "1"]],
               "rho_bar": [[0, 0, "1"]], "gamma_conn": [[0, 0, 1, "1 q2"]]}
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("data, extra, expected", [
    (NONJACOBI_SO3, [], "courant_verify_nonjacobi_so3.json"),
    (BROKEN_ANCHOR, ["--degree", "2"], "courant_verify_broken_anchor.json"),
    (BROKEN_ANCHOR, ["--degree", "2", "--section-limit", "3"],
     "courant_verify_broken_anchor_limit3.json"),
    (CURVED_BOTH, [], "courant_verify_curved_both_anchors.json"),
])
def test_failing_courant_reports_pinned(tmp_path, capsys, data, extra,
                                        expected):
    code, out, _ = run(["courant-verify", write(tmp_path, "in.json", data)]
                       + extra, capsys)
    assert code == 1
    assert out == (DATA / expected).read_text()


# ---------------------------------------------------------------------------
# the JSON writer and the argv reader against their references
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10 ** 400, 10 ** 400),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                  5e-324, 1e16, 0.1]),
    st.text(), st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t",
                                "ç∂ℚ", "\U0001d524", "\u2028"]))
json_values = st.recursive(json_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), children, max_size=4)), max_leaves=25)


@given(json_values)
@example([[], {}, (), ["a", 1, "b"], ("c", [])])
@example({"a": {"b": []}, "": ()})
@example({"trajectory": [["0", "1.5"], ["1e-12", "-0"]], "ok": True})
@settings(max_examples=300, deadline=None, database=None)
def test_json_writer_is_json_dumps(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {"a": [1, {"b": Fraction(3)}]}, [b"bytes"], {1, 2},
    [object()]])
def test_json_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._json(value)


json_strings = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f\n\t", "ç∂ℚ", "\U0001d524", "\u2028", "-0"]))
json_rows = st.lists(st.one_of(
    st.lists(json_strings, min_size=1, max_size=4),
    st.lists(json_strings, min_size=1, max_size=4).map(tuple)),
    min_size=1, max_size=6)


@given(json_rows, st.one_of(json_values, st.lists(json_scalars, min_size=1,
                                                  max_size=3)),
       st.integers(0, 6))
# an empty row, non-list items, and rows holding a non-str
@example([["0", "1"]], [], 1)
@example([["0"]], (), 0)
@example([["0"]], "1", 1)
@example([["0"]], 1, 0)
@example([["0"]], {"a": "1"}, 0)
@example([["0"], ("1",)], ["1", None], 1)
@example([["0"]], [["1"]], 1)
@settings(max_examples=300, deadline=None, database=None)
def test_json_row_path_is_json_dumps(rows, odd, at):
    # lists of strings, alone and with any other item put in
    mixed = rows[:at] + [odd] + rows[at:]
    for value in (rows, mixed, {"trajectory": rows}, [mixed]):
        assert cli._json(value) == json.dumps(value, sort_keys=True,
                                              indent=2)


# --opt=v, abbreviated and repeated options, nargs="+", values that look
# like options or numbers; every subcommand
VALID_ARGV = [
    ["check-jacobi", "in.json"],
    ["check-jacobi", "in.json", "--format=table", "--output", "r.txt"],
    ["ce-cohomology", "in.json", "--degrees", "1", "2", "3"],
    ["ce-cohomology", "in.json", "--deg", "2", "--degrees", "3", "4"],
    ["deform-lie", "in.json", "--order=2", "--ord", "3"],
    ["dirac-linear", "--format", "table", "in.json"],
    ["courant-verify", "in.json", "--degree", "2", "--section", "3"],
    ["theta-master", "in.json", "--out=r.json"],
    ["deform-dirac", "in.json", "--order", "1", "--degree-cap=3"],
    ["rothstein-check", "--m=1", "--k", "0", "--seed", "7", "--seed", "8"],
    ["ihs-run", "--sys", "s.json", "--x0=1,0", "--steps", "3", "--h", "0.1",
     "--format", "csv"],
    ["check-jacobi", "in.json", "--output="],
    ["check-jacobi", "in.json", "--output", "-"],
    ["check-jacobi", "--", "in.json"],
    ["ihs-run", "--system", "s.json", "--x0=-1,0"],
    ["ihs-run", "--system", "s.json", "--x0", "1,0", "--steps", "1_000"],
    ["ihs-run", "--system", "s.json", "--x0", "1,0", "--h", "nan"],
    ["ce-cohomology", "in.json", "--degrees", "-1"],
    ["ce-cohomology", "in.json", "--degrees=3"],
    ["deform-lie", "in.json", "--order", "\u0663"],
]
BAD_ARGV = [
    [], ["-h"], ["--version"], ["bogus"], ["bogus", "in.json"],
    ["--version", "check-jacobi"],
    ["ce-cohomology", "in.json", "--bogus"],
    ["ihs-run", "--s", "s.json", "--x0", "1,0"],      # ambiguous
    ["deform-lie", "in.json", "--order", "two"],
    ["ihs-run", "--system", "s.json"],
    ["check-jacobi"], ["check-jacobi", "in.json", "extra"],
    ["check-jacobi", "in.json", "--version"],
    ["check-jacobi", "in.json", "--format", "csv"],
    ["rothstein-check", "--seed"],
    ["ihs-run", "--system", "s.json", "--x0", "-1,0"],
    ["theta-master", "in.json", "in.json"],
    ["theta-master", "in.json", "--", "in.json"],
    ["rothstein-check", "--seed", "two", "--seed", "1"],
] + [[name, "--help"] for name in cli.SUBCOMMANDS]


def test_parser_tables_cover_every_subcommand():
    assert {argv[0] for argv in VALID_ARGV} == set(cli.SUBCOMMANDS)


def parsed(args):
    # reprs, since nan != nan; func is the same object either way
    return sorted((k, repr(v)) for k, v in vars(args).items())


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_one_subcommand_parser_parses_as_the_full_one(argv):
    # the argv reader gives the full parser's namespace, or leaves the
    # argv to it
    args = cli._read(argv)
    assert args is None or parsed(args) == parsed(
        cli.build_parser().parse_args(argv))


# the argv shapes of README's examples and of the bench jobs
READ_ARGV = [
    ["check-jacobi", "in.json"],
    ["ce-cohomology", "in.json", "--degrees", "1", "2", "3"],
    ["deform-lie", "in.json", "--order", "3"],
    ["dirac-linear", "in.json"],
    ["courant-verify", "in.json", "--degree", "2"],
    ["theta-master", "in.json"],
    ["deform-dirac", "in.json", "--order", "3"],
    ["rothstein-check", "--m", "3", "--k", "3", "--seed", "7"],
    ["ihs-run", "--system", "s.json", "--x0", "1,0", "--steps", "1000",
     "--format", "csv"],
    ["ihs-run", "--system", "s.json", "--x0=-0.3,1/2", "--steps", "5000"],
    ["ihs-run", "--system", "s.json", "--x0=0.3,-0.7,1e-12", "--steps",
     "100", "--format", "table", "--output", "r.txt"],
    ["check-jacobi", "in.json", "--format=table", "--output", "r.txt",
     "--format", "json"],
    ["ihs-run", "--x0", "1,0", "--h", "nan", "--system=s.json", "--steps",
     "1_000"],
    ["deform-lie", "--order", "\u0663", "in.json", "--output="],
]


@pytest.mark.parametrize("argv", READ_ARGV, ids=" ".join)
def test_reader_reads_exact_options(argv):
    args = cli._read(argv)
    assert args is not None
    assert parsed(args) == parsed(cli.build_parser().parse_args(argv))


def exits(call):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        with pytest.raises(SystemExit) as e:
            call()
    return e.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_main_rejects_as_the_full_parser(argv):
    assert (exits(lambda: cli.main(argv))
            == exits(lambda: cli.build_parser().parse_args(argv)))


ARGV_VALUES = ["1", "0", "-1", "1_000", "\u0663", "two", "nan", "json",
               "table", "csv", "1,0", "-1,0", "", "-", "--", "in.json"]


@st.composite
def argvs(draw):
    """A subcommand (or not) and up to six items: the positional, an
    option of the subcommand (exact or abbreviated, with 0-3 values
    spaced or the first after "="), or a token argparse reads itself."""
    name = draw(st.sampled_from([*cli.SUBCOMMANDS, "bogus"]))
    flags = [f for f, _ in cli.SUBCOMMANDS.get(
        name, (None, None, cli._arguments()))[2] if f[0] == "-"]
    argv = [name]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["input", "option", "option", "other"]))
        if kind == "input":
            argv.append("in.json")
        elif kind == "other":
            argv.append(draw(st.sampled_from(
                ["--", "-h", "--help", "--version", "-x", "--bogus"])))
        else:
            flag = draw(st.sampled_from(flags))
            flag = flag[:draw(st.integers(3, len(flag)))]
            values = draw(st.lists(st.sampled_from(ARGV_VALUES), max_size=3))
            if values and draw(st.booleans()):
                argv += [flag + "=" + values[0]] + values[1:]
            else:
                argv += [flag] + values
    return argv


@given(argvs())
@example(["ce-cohomology", "in.json", "--degrees", "1", "-1"])
@example(["deform-dirac", "--format=table", "in.json", "--format=csv"])
@example(["ihs-run", "--x0=--", "--system", "s.json"])
@settings(max_examples=400, deadline=None, database=None)
def test_reader_is_the_full_parser(argv):
    # a namespace from the reader is the full parser's; an argv it leaves
    # to argparse gets argparse's exit code, output and messages from main
    args = cli._read(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            full = cli.build_parser().parse_args(argv)
    except SystemExit:
        assert args is None
        assert (exits(lambda: cli.main(argv))
                == exits(lambda: cli.build_parser().parse_args(argv)))
    else:
        assert args is None or parsed(args) == parsed(full)
