"""Command-line front end: one binary, one subcommand per engine.

Each subcommand returns (input hash, report body, ok); `main` alone
writes the report envelope and picks the exit code: 0 = pass / extends,
1 = a mathematical failure, 2 = input error, a jsonin.InputError whose
message names the input file and JSON path, or the option, at fault.
Reports are deterministic (byte-identical for equal inputs and seeds)
and embed the input hash and engine version.  JSON schemas for the
input files live in docs/schemas.
"""

import argparse
import hashlib
import json
import math
import random
import sys
from fractions import Fraction

from . import __version__, courant, ihs
from . import dirac_linear as dl
from .brackets import BracketContext, master_residuals
from .jsonin import InputError, array, fields, natural
from .lie_deform import Order0NotLie, PreconditionMC, extend_series
from .multilinear import (
    NotLie,
    cohomology_dims,
    first_failing_triple,
    structure_constants_from_json,
)
from .superalg import ConnectionData, phase_generators, to_text


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(path, f"cannot read file ({e})")
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as e:
        raise InputError(path, f"invalid JSON ({e})")
    if type(data) is not dict:      # every input schema is an object
        raise InputError("$", "expected an object, got " + type(data).__name__)
    return data, hashlib.sha256(raw).hexdigest()


def _hash_params(*parts):
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()


def _require_counts(*options):
    """Reject negative counts; each option is a pair (name, value), and a
    value of None means the option was not given."""
    for name, value in options:
        if value is not None:
            natural(value, name)


def _require_positive(name, value):
    """Reject a float option that is given but not finite and > 0."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise InputError(name, "must be a finite number > 0")


def _render_table(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            lines.extend(_render_table(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            lines.extend(_render_table(v, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix[:-1]} = {obj}")
    return lines


def _emit(report, args):
    """Write the report as JSON, as a table, or (ihs-run) as the CSV of a
    passing report's trajectory rows."""
    if args.format == "table":
        text = "\n".join(_render_table(report)) + "\n"
    elif args.format == "csv" and report["ok"]:
        rows = report["report"]["trajectory"]
        n = len(rows[0]) - 3
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "residual"]
        text = "\n".join(",".join(row) for row in [header] + rows) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError("--output", f"cannot write ({e})")


# ---------------------------------------------------------------------------
# subcommands: each returns (input_hash, report body, ok)
# ---------------------------------------------------------------------------

def cmd_check_jacobi(args):
    data, digest = _load_json(args.input)
    mu = structure_constants_from_json(data)
    triple = first_failing_triple(mu)
    body = {"dim": mu.dim, "jacobi": triple is None}
    if triple is not None:
        body["first_failing_triple"] = list(triple)
    return digest, body, triple is None


def cmd_ce_cohomology(args):
    _require_counts(("--degrees", min(args.degrees)))
    data, digest = _load_json(args.input)
    mu = structure_constants_from_json(data)
    try:
        dims = cohomology_dims(mu, args.degrees)
    except NotLie:
        return digest, {"error": "structure constants do not satisfy "
                                 "Jacobi"}, False
    return digest, {"dim": mu.dim, "cohomology": {
        f"H{k}": d for k, d in zip(args.degrees, dims)}}, True


def cmd_deform_lie(args):
    _require_counts(("--order", args.order))
    data, digest = _load_json(args.input)
    mu = structure_constants_from_json(data)
    try:
        coeffs, certs = extend_series([mu], args.order)
    except Order0NotLie:
        return digest, {"error": "order-0 structure is not a Lie "
                                 "bracket"}, False
    rows = [{"order": c.order, "extends": c.extends,
             "cocycle_zero": c.cocycle.is_zero()} for c in certs]
    body = {"dim": mu.dim, "order": args.order, "certificates": rows,
            "reached_order": len(coeffs) - 1}
    return digest, body, all(c.extends for c in certs)


def cmd_dirac_linear(args):
    data, digest = _load_json(args.input)
    try:
        L = dl.dirac_from_input(data)
    except (dl.NotDirac, dl.NotAntisymmetric) as e:
        return digest, {"violation": type(e).__name__,
                        "detail": str(e)}, False
    rep = dl.represent(L)
    body = {
        "n": L.n,
        "dim": L.subspace.dim,
        "range_dim": rep["R"].dim,
        "kernel_dim": rep["K"].dim,
        "subspace": dl.subspace_to_json(L.subspace),
        "range": dl.subspace_to_json(rep["R"]),
        "kernel": dl.subspace_to_json(rep["K"]),
    }
    return digest, body, True


def cmd_courant_verify(args):
    _require_counts(("--degree", args.degree),
                    ("--section-limit", args.section_limit))
    data, digest = _load_json(args.input)
    rep = courant.verify_courant(courant.CourantInput.from_json(data),
                                 degree=args.degree,
                                 section_limit=args.section_limit)
    return digest, rep, rep["ok"]


def cmd_theta_master(args):
    data, digest = _load_json(args.input)
    th = courant.build_theta(courant.CourantInput.from_json(data))
    res = master_residuals(th.ctx, th.theta)
    ok = res["total"].is_zero()
    body = {
        "theta": to_text(th.theta),
        "master_zero": ok,
        "residual": to_text(res["total"]),
        "components": {str(k): to_text(v)
                       for k, v in res["components"].items()
                       if not v.is_zero()},
    }
    return digest, body, ok


def cmd_deform_dirac(args):
    _require_counts(("--order", args.order),
                    ("--degree-cap", args.degree_cap))
    data, digest = _load_json(args.input)
    fields(data, "$", ("courant", "prefix"))
    th = courant.build_theta(
        courant.CourantInput.from_json(data["courant"], "$.courant"))
    prefix = [courant.parse_text(th.gens, s, f"$.prefix[{i}]")
              for i, s in enumerate(array(data["prefix"], "$.prefix"))]
    try:
        coeffs, certs = courant.deform_series_dirac(
            th, prefix, args.order, degree_cap=args.degree_cap)
    except (PreconditionMC, courant.AxiomViolation) as e:
        return digest, {"violation": type(e).__name__,
                        "detail": str(e)}, False
    rows = [{"order": c.order, "status": c.status,
             "cocycle": to_text(c.cocycle)} for c in certs]
    body = {"order": args.order, "certificates": rows,
            "reached_order": len(coeffs),
            "coefficients": [to_text(c) for c in coeffs]}
    return digest, body, all(c.extends for c in certs)


def _random_connection(rng, gens, m, k):
    gamma = {}
    mons = [gens.one()]
    for i in range(m):
        q = gens.gen(gens.even[i])
        mons += [q, q * q]
    for i in range(m):
        for a in range(k):
            for b in range(k):
                if rng.random() < 0.6:
                    gamma[(i, a, b)] = (Fraction(rng.randint(-2, 2))
                                        * rng.choice(mons))
    return ConnectionData(gens, m, k, {key: v for key, v in gamma.items()
                                       if not v.is_zero()})


def cmd_rothstein_check(args):
    _require_counts(("--m", args.m), ("--k", args.k))
    rng = random.Random(args.seed)
    gens = phase_generators(args.m, args.k)
    conn = _random_connection(rng, gens, args.m, args.k)
    ctx = BracketContext.rothstein_on(conn)
    r = ctx.darboux_momenta()
    g = gens.gen
    residuals = {}
    for i in range(args.m):
        for j in range(args.m):
            want = gens.scalar(1 if i == j else 0)
            residuals[f"{{q{i+1},r{j+1}}}"] = to_text(
                ctx.bracket(g(gens.even[i]), r[j]) - want)
            residuals[f"{{r{i+1},r{j+1}}}"] = to_text(
                ctx.bracket(r[i], r[j]))
        for a in range(args.k):
            residuals[f"{{r{i+1},a_{a+1}}}"] = to_text(
                ctx.bracket(r[i], g(gens.odd[a])))
            residuals[f"{{r{i+1},a^{a+1}}}"] = to_text(
                ctx.bracket(r[i], g(gens.odd[args.k + a])))
    for a in range(args.k):
        for b in range(args.k):
            want = gens.scalar(1 if a == b else 0)
            residuals[f"{{a^{a+1},a_{b+1}}}"] = to_text(
                ctx.bracket(g(gens.odd[args.k + a]),
                            g(gens.odd[b])) - want)
    ok = all(v == "0" for v in residuals.values())
    body = {"m": args.m, "k": args.k, "residuals": residuals,
            "all_zero": ok}
    digest = _hash_params("rothstein-check", args.m, args.k, args.seed)
    return digest, body, ok


def cmd_ihs_run(args):
    _require_counts(("--steps", args.steps))
    _require_positive("--h", args.h)
    data, digest = _load_json(args.input)
    sys_ = ihs.system_from_json(data)
    try:
        x0 = [float(Fraction(x)) for x in args.x0.split(",")]
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise InputError("--x0", str(e))
    if len(x0) != sys_.n:
        raise InputError("--x0", f"expected {sys_.n} components")
    h = sys_.h if args.h is None else args.h
    try:
        traj = sys_.integrate(x0, args.steps, h=h)
    except ihs.LeftAdmissibleSet as e:
        return digest, {"status": "LEFT_ADMISSIBLE_SET", "step": e.step,
                        "t": e.t}, False
    body = {"steps": args.steps, "h": h, "max_drift": traj.max_drift,
            "max_residual": traj.max_residual,
            "trajectory": ihs.trajectory_rows(traj)}
    return digest, body, True


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="diracdeform",
        description="Exact-arithmetic engines for graded brackets, Dirac "
                    "structures, Courant algebroids, and deformations.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json", "table")):
        p.add_argument("--format", choices=fmt, default="json")
        p.add_argument("--output", default=None)

    p = sub.add_parser("check-jacobi", help="Jacobi test on structure "
                       "constants")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_check_jacobi)

    p = sub.add_parser("ce-cohomology", help="adjoint Chevalley-Eilenberg "
                       "cohomology dimensions")
    p.add_argument("input")
    p.add_argument("--degrees", type=int, nargs="+", default=[1, 2, 3])
    common(p)
    p.set_defaults(func=cmd_ce_cohomology)

    p = sub.add_parser("deform-lie", help="order-by-order deformation of "
                       "a Lie bracket")
    p.add_argument("input")
    p.add_argument("--order", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_deform_lie)

    p = sub.add_parser("dirac-linear", help="validate and represent a "
                       "linear Dirac structure")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_dirac_linear)

    p = sub.add_parser("courant-verify", help="axioms of a split Courant "
                       "structure")
    p.add_argument("input")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--section-limit", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_courant_verify)

    p = sub.add_parser("theta-master", help="master equation of the "
                       "assembled charge")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_theta_master)

    p = sub.add_parser("deform-dirac", help="graph deformation solver")
    p.add_argument("input")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--degree-cap", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_deform_dirac)

    p = sub.add_parser("rothstein-check", help="super-Darboux residual "
                       "table for a random connection")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_rothstein_check)

    p = sub.add_parser("ihs-run", help="integrate an implicit "
                       "Hamiltonian system")
    p.add_argument("--system", dest="input", metavar="SYSTEM",
                   required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--h", type=float, default=None)
    common(p, fmt=("json", "table", "csv"))
    p.set_defaults(func=cmd_ihs_run)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        input_hash, body, ok = args.func(args)
        report = {"command": args.command, "engine_version": __version__,
                  "input_hash": input_hash, "ok": ok, "report": body}
        if "seed" in args:
            report["seed"] = args.seed
        _emit(report, args)
    except InputError as e:
        # a JSON path is relative to the input file, so name the file too
        where = f"{args.input}: " if e.path.startswith("$") else ""
        sys.stderr.write(f"input error: {where}{e}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
