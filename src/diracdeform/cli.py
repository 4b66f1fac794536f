"""Command-line front end: one binary, one subcommand per engine.

Each subcommand returns (input hash, report body, ok); `main` alone
writes the report envelope and picks the exit code: 0 = pass / extends,
1 = a mathematical failure, 2 = input error, a jsonin.InputError whose
message names the input file and JSON path, the option at fault, or
stdout when the report cannot be written there.  `_read` reads a job's
argv straight from the SUBCOMMANDS table; argparse is imported only for
help, abbreviations and errors.  `_json` writes the text of
json.dumps(report, sort_keys=True, indent=2) in a fraction of its time.
An ihs-run report holds the ihs.Trajectory itself: JSON and CSV write
its .12g rows with one ihs.trajectory_text, the table through
ihs.trajectory_rows.
Reports are deterministic (byte-identical for equal inputs and seeds)
and embed the input hash and engine version.  JSON schemas for the input
files live in docs/schemas.
"""

import hashlib
import json
import math
import os
import random
import sys
from json.encoder import encode_basestring_ascii as _str
from types import SimpleNamespace

from . import __version__, courant, ihs
from . import dirac_linear as dl
from .brackets import BracketContext, darboux_residuals, master_residuals
from .jsonin import InputError, array, fields, natural, rational
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


def _require_at_most(bound, *options):
    """Reject counts above bound; each option is a pair (name, value)."""
    for name, value in options:
        if value > bound:
            raise InputError(name, f"{value} is more than {bound}")


def _require_positive(name, value):
    """Reject a float option that is given but not finite and > 0."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise InputError(name, "must be a finite number > 0")


# most unit k-cochains, C(dim, k) * dim, that ce-cohomology (k and k - 1
# per H^k) and deform-lie (k = 2) list, all before reading a constant
MAX_COCHAINS = 10 ** 5


# most orders of a deform-lie or deform-dirac, checked before the input
# is read.  From mu, or from a prefix whose later orders are 0, each
# order costs the same: deform-lie on so(3) takes 0.25 s at 3,000 and
# 0.4-0.6 s at 10**4, deform-dirac on the so(3) double 0.5 s at 10**4
# (fresh processes, 2 CPUs, Python 3.11).  A prefix whose orders stay
# nonzero brackets every pair of them at each order
MAX_ORDER = 10 ** 4


# most RK4 steps of an ihs-run, checked before the system is read.  At
# 10**6 steps a 4-D system's JSON report is about 150 MB (its table 250
# MB), and the process holds both the floats and the text: 0.6-1.5 GB
MAX_STEPS = 10 ** 6


# most base coordinates (--m) and most odd pairs (--k) of a
# rothstein-check, checked before the generators are built.  Its time
# grows about as the fifth power of m = k: 0.12 s at 6, 1.4 s at 10 and
# 3.7 s at 12 (2 CPUs, Python 3.11)
MAX_PHASE = 10


def _require_cochains(dim, degrees):
    for k in degrees:
        if math.comb(dim, k) * dim > MAX_COCHAINS:
            raise InputError("$.dim", f"{dim} has more than {MAX_COCHAINS} "
                             f"unit {k}-cochains")


def _render_table(obj, prefix=""):
    if isinstance(obj, ihs.Trajectory):
        return [f"{prefix}{i}.{j} = {v}"
                for i, row in enumerate(ihs.trajectory_rows(obj))
                for j, v in enumerate(row)]
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


def _json(o, indent="\n"):
    """json.dumps(o, sort_keys=True, indent=2), byte for byte, for dict
    keys that are str, where an ihs.Trajectory stands for the list of its
    trajectory_rows.  Under indent, json.dumps encodes in pure Python;
    here a list of strings is one join, and a Trajectory one
    ihs.trajectory_text whose template holds the quotes and indents."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        try:
            items = ("," + inner).join(map(_str, o))
        except TypeError:       # an item that is not a str
            items = ("," + inner).join([_json(v, inner) for v in o])
        return "[" + inner + items + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join(
            [_str(k) + ": " + _json(o[k], inner) for k in sorted(o)]
        ) + indent + "}"
    if isinstance(o, str):
        return _str(o)
    if isinstance(o, ihs.Trajectory):
        inner, row = indent + "  ", indent + "    "
        return "[" + inner + ihs.trajectory_text(
            o, "[" + row + '"', '",' + row + '"', '"' + inner + "]",
            "," + inner) + indent + "]"
    if o is None or isinstance(o, bool):
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return (float.__repr__(o) if math.isfinite(o) else "NaN" if o != o
                else "Infinity" if o > 0 else "-Infinity")
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _emit(report, args):
    """Write the report as JSON, as a table, or (ihs-run) as the CSV of a
    passing report's trajectory: a header, then the rows of
    ihs.trajectory_text."""
    if args.format == "table":
        text = "\n".join(_render_table(report)) + "\n"
    elif args.format == "csv" and report["ok"]:
        traj = report["report"]["trajectory"]
        n = len(traj.points[0])
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "residual"]
        text = ",".join(header) + "\n" + ihs.trajectory_text(
            traj, "", ",", "", "\n") + "\n"
    else:
        text = _json(report) + "\n"
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        if args.output:
            raise InputError("--output", f"cannot write ({e})")
        # what failed stays buffered: let the flush at exit drop it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise InputError("stdout", f"cannot write ({e})")


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
    _require_cochains(mu.dim, sorted({max(k - 1, 0) for k in args.degrees}
                                     | set(args.degrees)))
    try:
        dims = cohomology_dims(mu, args.degrees)
    except NotLie:
        return digest, {"error": "structure constants do not satisfy "
                                 "Jacobi"}, False
    return digest, {"dim": mu.dim, "cohomology": {
        f"H{k}": d for k, d in zip(args.degrees, dims)}}, True


def cmd_deform_lie(args):
    _require_counts(("--order", args.order))
    _require_at_most(MAX_ORDER, ("--order", args.order))
    data, digest = _load_json(args.input)
    mu = structure_constants_from_json(data)
    _require_cochains(mu.dim, [2])
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
    R, K = dl.range_of(L), dl.intersect_V(L)
    body = {
        "n": L.n,
        "dim": L.subspace.dim,
        "range_dim": R.dim,
        "kernel_dim": K.dim,
        "subspace": dl.subspace_to_json(L.subspace),
        "range": dl.subspace_to_json(R),
        "kernel": dl.subspace_to_json(K),
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
    _require_at_most(MAX_ORDER, ("--order", args.order))
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
                    gamma[(i, a, b)] = (rng.randint(-2, 2)
                                        * rng.choice(mons))
    return ConnectionData(gens, m, k, {key: v for key, v in gamma.items()
                                       if not v.is_zero()})


def cmd_rothstein_check(args):
    _require_counts(("--m", args.m), ("--k", args.k))
    _require_at_most(MAX_PHASE, ("--m", args.m), ("--k", args.k))
    rng = random.Random(args.seed)
    gens = phase_generators(args.m, args.k)
    conn = _random_connection(rng, gens, args.m, args.k)
    residuals = {name: to_text(v) for name, v in darboux_residuals(
        BracketContext.rothstein_on(conn)).items()}
    ok = all(v == "0" for v in residuals.values())
    body = {"m": args.m, "k": args.k, "residuals": residuals,
            "all_zero": ok}
    digest = _hash_params("rothstein-check", args.m, args.k, args.seed)
    return digest, body, ok


def cmd_ihs_run(args):
    _require_counts(("--steps", args.steps))
    _require_at_most(MAX_STEPS, ("--steps", args.steps))
    _require_positive("--h", args.h)
    data, digest = _load_json(args.input)
    sys_ = ihs.system_from_json(data)
    try:
        x0 = [float(rational(x, "--x0")) for x in args.x0.split(",")]
    except OverflowError as e:
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
            "trajectory": traj}
    return digest, body, True


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _arguments(*arguments, formats=("json", "table")):
    """(name, add_argument keywords) pairs, then --format and --output."""
    return [*arguments, ("--format", dict(choices=formats, default="json")),
            ("--output", dict(default=None))]


INPUT = ("input", {})
ORDER_HELP = f"highest order, at most {MAX_ORDER}"

SUBCOMMANDS = {
    "check-jacobi": (cmd_check_jacobi, "Jacobi test on structure constants",
                     _arguments(INPUT)),
    "ce-cohomology": (
        cmd_ce_cohomology, "adjoint Chevalley-Eilenberg cohomology "
        "dimensions", _arguments(INPUT, ("--degrees", dict(
            type=int, nargs="+", default=[1, 2, 3])))),
    "deform-lie": (cmd_deform_lie, "order-by-order deformation of a Lie "
                   "bracket", _arguments(
                       INPUT, ("--order", dict(
                           type=int, default=4, help=ORDER_HELP)))),
    "dirac-linear": (cmd_dirac_linear, "validate a linear Dirac structure "
                     "and give its range and kernel", _arguments(INPUT)),
    "courant-verify": (
        cmd_courant_verify, "axioms of a split Courant structure",
        _arguments(INPUT, ("--degree", dict(type=int, default=1)),
                   ("--section-limit", dict(type=int, default=None)))),
    "theta-master": (cmd_theta_master, "master equation of the assembled "
                     "charge", _arguments(INPUT)),
    "deform-dirac": (cmd_deform_dirac, "graph deformation solver", _arguments(
        INPUT, ("--order", dict(type=int, default=3, help=ORDER_HELP)),
        ("--degree-cap", dict(type=int, default=2)))),
    "rothstein-check": (
        cmd_rothstein_check, "super-Darboux residual table for a random "
        "connection", _arguments(("--m", dict(type=int, default=2)),
                                 ("--k", dict(type=int, default=2)),
                                 ("--seed", dict(type=int, default=0)))),
    "ihs-run": (cmd_ihs_run, "integrate an implicit Hamiltonian system",
                _arguments(("--system", dict(dest="input", metavar="SYSTEM",
                                             required=True)),
                           ("--x0", dict(required=True, help=(
                               "initial point, comma-separated; write "
                               "one that starts with a minus sign as "
                               "--x0=-1,0"))),
                           ("--steps", dict(type=int, default=1000)),
                           ("--h", dict(type=float, default=None)),
                           formats=("json", "table", "csv"))),
}


def build_parser():
    """The parser of every subcommand in SUBCOMMANDS (name -> handler,
    help, arguments): the one source of help, usage and error messages."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="diracdeform",
        description="Exact-arithmetic engines for graded brackets, Dirac "
                    "structures, Courant algebroids, and deformations.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return ap


def _dest(name, options):
    return options.get("dest") or name.lstrip("-").replace("-", "_")


def _read(argv):
    """vars() of build_parser().parse_args(argv), as a namespace, for a
    subcommand followed by its positional and exact long options: --flag
    value, --flag=value, and nargs="+" values up to the next token that
    starts with "-".  None for every other argv, which argparse reads:
    help, --version, abbreviations, "--", single-dash tokens, a spaced
    value that starts with "-", --flag=-- and --flag=... of a list, and
    every error."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    func, _, arguments = SUBCOMMANDS[argv[0]]
    options = dict(arguments)
    positional = next((a for a in options if a[0] != "-"), None)
    ns = {"command": argv[0], "func": func}
    given = set()
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if token[:1] != "-":
            if positional is None or positional in given:
                return None
            name, values = positional, [token]
        else:
            name, eq, value = token.partition("=")
            if name not in options:
                return None
            many = "nargs" in options[name]
            if eq:
                if many or value == "--":     # argparse drops a "--"
                    return None
                values = [value]
            else:
                j = i
                while j < n and argv[j][:1] != "-" and (many or j == i):
                    j += 1
                if j == i:
                    return None
                values, i = argv[i:j], j
        # argparse converts and checks every occurrence; the last one wins
        opts = options[name]
        try:
            values = [opts.get("type", str)(v) for v in values]
        except (TypeError, ValueError):
            return None
        choices = opts.get("choices")
        if choices is not None and any(v not in choices for v in values):
            return None
        ns[_dest(name, opts)] = values if "nargs" in opts else values[0]
        given.add(name)
    for name, opts in arguments:
        if name not in given:
            if opts.get("required") or name == positional:
                return None
            ns[_dest(name, opts)] = opts.get("default")
    return SimpleNamespace(**ns)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser().parse_args(argv)
    try:
        input_hash, body, ok = args.func(args)
        report = {"command": args.command, "engine_version": __version__,
                  "input_hash": input_hash, "ok": ok, "report": body}
        if hasattr(args, "seed"):
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
