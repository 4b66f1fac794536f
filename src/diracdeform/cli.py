"""Command-line front end: one binary, one subcommand per engine.

Exit codes: 0 = pass / extends, 1 = obstruction or axiom violation,
2 = input error.  Reports are deterministic (byte-identical for equal
inputs and seeds) and embed the input hash and engine version.  JSON
schemas for the input files live in docs/schemas.
"""

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

from . import __version__, courant, ihs, ratlin
from . import dirac_linear as dl
from .brackets import BracketContext, master_residuals
from .lie_deform import PreconditionMC, extend_series
from .multilinear import (
    cohomology,
    is_lie,
    jacobiator,
    nr_bracket,
    structure_constants_from_json,
)
from .superalg import ConnectionData, parse as sa_parse, phase_generators, to_text


class SchemaError(Exception):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise SchemaError(path, f"cannot read file ({e})")
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as e:
        raise SchemaError(path, f"invalid JSON ({e})")


def _hash_params(*parts):
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()


def _require(obj, path, key, types):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a JSON object, got "
                          f"{type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    if not isinstance(obj[key], types):
        raise SchemaError(f"{path}.{key}",
                          f"expected {types}, got {type(obj[key]).__name__}")
    return obj[key]


def _require_counts(*options):
    """Reject negative counts; each option is a pair (name, value), and a
    value of None means the option was not given."""
    for name, value in options:
        if value is not None and value < 0:
            raise SchemaError(name, "must be non-negative")


def _require_positive(name, value):
    """Reject a float option that is given but not finite and > 0."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise SchemaError(name, "must be a finite number > 0")


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


def _write(text, args):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report, args):
    if args.format == "table":
        text = "\n".join(_render_table(report)) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _write(text, args)


def _envelope(command, input_hash, body, ok, seed=None):
    rep = {
        "command": command,
        "engine_version": __version__,
        "input_hash": input_hash,
        "ok": ok,
        "report": body,
    }
    if seed is not None:
        rep["seed"] = seed
    return rep


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_structure(args):
    """Structure constants from args.input, plus the input's digest."""
    data, digest = _load_json(args.input)
    try:
        return structure_constants_from_json(data), digest
    except ValueError as e:
        raise SchemaError(args.input, str(e))


def cmd_check_jacobi(args):
    mu, digest = _load_structure(args)
    ok = nr_bracket(mu, mu).is_zero()
    body = {"dim": mu.dim, "jacobi": ok}
    if not ok:
        for (i, j, k) in itertools.combinations(range(mu.dim), 3):
            if any(jacobiator(mu, i, j, k)):
                body["first_failing_triple"] = [i, j, k]
                break
    _emit(_envelope("check-jacobi", digest, body, ok), args)
    return 0 if ok else 1


def cmd_ce_cohomology(args):
    _require_counts(("--degrees", min(args.degrees)))
    mu, digest = _load_structure(args)
    if not is_lie(mu):
        body = {"error": "structure constants do not satisfy Jacobi"}
        _emit(_envelope("ce-cohomology", digest, body, False), args)
        return 1
    dims = {}
    for k in args.degrees:
        hdim, _ = cohomology(mu, k)
        dims[f"H{k}"] = hdim
    body = {"dim": mu.dim, "cohomology": dims}
    _emit(_envelope("ce-cohomology", digest, body, True), args)
    return 0


def cmd_deform_lie(args):
    _require_counts(("--order", args.order))
    mu, digest = _load_structure(args)
    if not is_lie(mu):
        body = {"error": "order-0 structure is not a Lie bracket"}
        _emit(_envelope("deform-lie", digest, body, False), args)
        return 1
    coeffs, certs = extend_series([mu], args.order)
    rows = [{"order": c.order, "extends": c.extends,
             "cocycle_zero": c.cocycle.is_zero()} for c in certs]
    ok = all(c.extends for c in certs)
    body = {"dim": mu.dim, "order": args.order, "certificates": rows,
            "reached_order": len(coeffs) - 1}
    _emit(_envelope("deform-lie", digest, body, ok), args)
    return 0 if ok else 1


def _dirac_from_input(data, path):
    n = _require(data, path, "n", int)
    if "subspace" in data:
        rows = [[Fraction(x) for x in row] for row in data["subspace"]]
        return dl.LinearDirac(n, ratlin.Subspace(2 * n, rows))
    if "two_form" in data:
        return dl.from_two_form(
            [[Fraction(x) for x in row] for row in data["two_form"]])
    if "bivector" in data:
        return dl.from_bivector(
            [[Fraction(x) for x in row] for row in data["bivector"]])
    raise SchemaError(path, "need one of subspace / two_form / bivector")


def cmd_dirac_linear(args):
    data, digest = _load_json(args.input)
    try:
        L = _dirac_from_input(data, args.input)
    except (dl.NotDirac, dl.NotIsotropic, dl.NotAntisymmetric,
            dl.ShapeMismatch) as e:
        body = {"violation": type(e).__name__, "detail": str(e)}
        _emit(_envelope("dirac-linear", digest, body, False), args)
        return 1
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
    _emit(_envelope("dirac-linear", digest, body, True), args)
    return 0


def cmd_courant_verify(args):
    _require_counts(("--degree", args.degree),
                    ("--section-limit", args.section_limit))
    data, digest = _load_json(args.input)
    try:
        inp = courant.CourantInput.from_json(data)
    except (courant.ShapeError, KeyError, ValueError, TypeError) as e:
        raise SchemaError(args.input, f"bad structure data ({e})")
    rep = courant.verify_courant(inp, degree=args.degree,
                                 section_limit=args.section_limit)
    _emit(_envelope("courant-verify", digest, rep, rep["ok"]), args)
    return 0 if rep["ok"] else 1


def cmd_theta_master(args):
    data, digest = _load_json(args.input)
    try:
        inp = courant.CourantInput.from_json(data)
        th = courant.build_theta(inp)
    except (courant.ShapeError, KeyError, ValueError, TypeError) as e:
        raise SchemaError(args.input, f"bad structure data ({e})")
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
    _emit(_envelope("theta-master", digest, body, ok), args)
    return 0 if ok else 1


def cmd_deform_dirac(args):
    _require_counts(("--order", args.order),
                    ("--degree-cap", args.degree_cap))
    data, digest = _load_json(args.input)
    cdata = _require(data, args.input, "courant", dict)
    try:
        inp = courant.CourantInput.from_json(cdata)
        th = courant.build_theta(inp)
        prefix = [sa_parse(inp.gens, s)
                  for s in _require(data, args.input, "prefix", list)]
    except (courant.ShapeError, KeyError, ValueError, TypeError) as e:
        raise SchemaError(args.input, f"bad structure data ({e})")
    try:
        coeffs, certs = courant.deform_series_dirac(
            th, prefix, args.order, degree_cap=args.degree_cap)
    except (PreconditionMC, courant.AxiomViolation) as e:
        body = {"violation": type(e).__name__, "detail": str(e)}
        _emit(_envelope("deform-dirac", digest, body, False), args)
        return 1
    rows = [{"order": c.order, "status": c.status,
             "cocycle": to_text(c.cocycle)} for c in certs]
    ok = all(c.extends for c in certs)
    body = {"order": args.order, "certificates": rows,
            "reached_order": len(coeffs),
            "coefficients": [to_text(c) for c in coeffs]}
    _emit(_envelope("deform-dirac", digest, body, ok), args)
    return 0 if ok else 1


def _random_connection(rng, gens, m, k, degree=2):
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
    _emit(_envelope("rothstein-check", digest, body, ok, seed=args.seed),
          args)
    return 0 if ok else 1


def cmd_ihs_run(args):
    _require_counts(("--steps", args.steps))
    _require_positive("--h", args.h)
    data, digest = _load_json(args.system)
    try:
        sys_ = ihs.system_from_json(data)
    except (KeyError, ValueError, TypeError, ihs.BadPolynomial,
            dl.NotDirac) as e:
        raise SchemaError(args.system, f"bad system data ({e})")
    try:
        x0 = [float(Fraction(x)) for x in args.x0.split(",")]
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise SchemaError("--x0", str(e))
    if len(x0) != sys_.n:
        raise SchemaError("--x0", f"expected {sys_.n} components")
    h = sys_.h if args.h is None else args.h
    try:
        traj = sys_.integrate(x0, args.steps, h=h)
    except ihs.LeftAdmissibleSet as e:
        body = {"status": "LEFT_ADMISSIBLE_SET", "step": e.step, "t": e.t}
        _emit(_envelope("ihs-run", digest, body, False), args)
        return 1
    rows = [[t] + list(x) + [e, res] for t, x, e, res in
            zip(traj.times, traj.points, traj.energies, traj.residuals)]
    if args.format == "csv":
        header = ["t"] + [f"x{i+1}" for i in range(sys_.n)] \
            + ["H", "residual"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(f"{v:.12g}" for v in row))
        _write("\n".join(lines) + "\n", args)
        return 0
    body = {"steps": args.steps, "h": h,
            "max_drift": traj.max_drift,
            "max_residual": traj.max_residual,
            "trajectory": [[f"{v:.12g}" for v in row] for row in rows]}
    _emit(_envelope("ihs-run", digest, body, True), args)
    return 0


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
        p.add_argument("--seed", type=int, default=0)

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
    common(p)
    p.set_defaults(func=cmd_rothstein_check)

    p = sub.add_parser("ihs-run", help="integrate an implicit "
                       "Hamiltonian system")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--h", type=float, default=None)
    common(p, fmt=("json", "table", "csv"))
    p.set_defaults(func=cmd_ihs_run)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
