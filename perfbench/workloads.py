"""The four benchmark workloads: seeded input files, CLI jobs, and the
expected verdict of every job.

A workload is a list of `Job`s.  `make_jobs(name, seed, workdir)` writes
the job inputs into `workdir` and returns the jobs; equal seeds give
byte-identical input files.  The seed changes how an input is written
(entry order, antisymmetric orientation, number formatting, JSON layout,
an equivalent basis of the same subspace, the initial point of an
integration, the connection of `rothstein-check`), never the amount of
mathematical work, so run-to-run spread measures the machine and the
program, not the inputs.

Every exact job is checked against its exit code, the `ok` flag, a few
key numbers, and the SHA-256 of its report bytes.  The report body does
not depend on the seed, so its digest is recorded once; the envelope's
`input_hash` is recomputed from the generated input, which pins the
whole report byte for byte.  Integration jobs are checked against the
closed-form solution instead.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = {
    "courant_axioms": "brackets and superalg do nearly all the work "
                      "(Rothstein brackets, nabla, partial_odd); ratlin "
                      "is nearly idle and multilinear unused",
    "lie_cohomology": "multilinear and ratlin split the time: CE "
                      "differentials, kernels, quotients and solves; "
                      "superalg and brackets unused",
    "ihs_trajectory": "float-only: 25,001 velocity solves per 5,000-step "
                      "run plus emitting a ~0.3-0.8 MB report",
    "cli_small": "short jobs on every remaining subcommand; process "
                 "start and package import dominate",
}

# tolerance of the closed-form trajectory check: RK4 with h = 1e-3 over
# t <= 5 has a global error near 1e-12, and reports print 12 digits
IHS_TOL = 1e-8
IHS_STEPS = 5000


class Job:
    """One CLI invocation and the check its output must pass.

    `check(stdout_bytes)` returns a list of problems (empty when the
    verdict is right); `keys` maps a dotted path in the report body to
    (expected value, source of that value).
    """

    def __init__(self, name, argv, exit_code, check, keys=None):
        self.name = name
        self.argv = argv
        self.exit_code = exit_code
        self.check = check
        self.keys = keys or {}


# ---------------------------------------------------------------------------
# seeded writing of inputs
# ---------------------------------------------------------------------------

def _number(rng, v):
    """A rational as the CLI accepts it: an int or a string."""
    v = Fraction(v)
    if v.denominator == 1 and rng.random() < 0.5:
        return int(v)
    return str(v)


def _dump(rng, obj):
    """JSON bytes with seeded key order and layout."""
    def shuffle_keys(o):
        if isinstance(o, dict):
            keys = list(o)
            rng.shuffle(keys)
            return {k: shuffle_keys(o[k]) for k in keys}
        if isinstance(o, list):
            return [shuffle_keys(x) for x in o]
        return o
    indent = rng.choice([None, 1, 2, 4])
    return json.dumps(shuffle_keys(obj), indent=indent).encode() + b"\n"


def _pair_rows(rng, table):
    """Rows [a, b, g, v] of constants antisymmetric in (a, b): each in a
    random orientation, some also with their antisymmetric partner, in
    random order."""
    rows = []
    for (a, b, g), v in table.items():
        v = Fraction(v)
        if rng.random() < 0.5:
            a, b, v = b, a, -v
        rows.append([a, b, g, _number(rng, v)])
        if rng.random() < 0.25:
            rows.append([b, a, g, _number(rng, -v)])
    rng.shuffle(rows)
    return rows


def _triple_rows(rng, table):
    """Rows of totally antisymmetric constants, each under a random
    permutation of its indices with the matching sign."""
    rows = []
    for (a, b, c), v in table.items():
        perm = [(a, b, c, 1), (b, c, a, 1), (c, a, b, 1),
                (b, a, c, -1), (a, c, b, -1), (c, b, a, -1)]
        x, y, z, s = rng.choice(perm)
        rows.append([x, y, z, _number(rng, s * Fraction(v))])
    rng.shuffle(rows)
    return rows


EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}


def standard_courant_json(rng, m):
    """Identity anchor on the lower summand of an m-dimensional base."""
    rows = [[i, i, _number(rng, 1)] for i in range(m)]
    rng.shuffle(rows)
    return {"m": m, "k": m, "rho": rows}


def so3_double_json(rng):
    return {"m": 0, "k": 3, "c": _pair_rows(rng, EPS3),
            "psi": _triple_rows(rng, {(0, 1, 2): Fraction(-1, 4)})}


def bialgebra_json(rng):
    """Upper so(3) constants only: the obstructed graph deformation."""
    return {"m": 0, "k": 3, "c_bar": _pair_rows(rng, EPS3)}


def lie_json(rng, dim, table):
    return {"dim": dim, "c": _pair_rows(rng, table)}


def filiform(n):
    """Model filiform algebra: [e0, ei] = e(i+1) for 1 <= i <= n-2."""
    return {(0, i, i + 1): 1 for i in range(1, n - 1)}


def _prefix_text(rng):
    """The order-1 two-form a^1 a^2 in one of its spellings."""
    return rng.choice(["1 a^1 a^2", "a^1 a^2", "-1 a^2 a^1"])


def _mixed_rows(rng, rows):
    """Another basis of the row span: unimodular integer row operations
    followed by nonzero rational row scalings."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    out = []
    for r in rows:
        s = Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2, 5]))
        out.append([str(s * x) for x in r])
    return out


# Lagrangian in V + V* for n = 4 with range span(e1, e2, e3) and kernel
# span(e3): basis (e1, e2*), (e2, -e1*), (e3, 0), (0, e4*).
MIXED_DIRAC = [[1, 0, 0, 0, 0, 1, 0, 0],
               [0, 1, 0, 0, -1, 0, 0, 0],
               [0, 0, 1, 0, 0, 0, 0, 0],
               [0, 0, 0, 0, 0, 0, 0, 1]]
# rank-2 two-form on Q^3 (kernel span(e3)); rank-4 bivector on Q^4
TWO_FORM = [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]
BIVECTOR = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]


def _matrix_json(rng, M):
    return [[_number(rng, x) for x in row] for row in M]


def oscillator_json():
    """H = (x1^2 + x2^2)/2 on the canonical plane: xdot = (x2, -x1)."""
    return {"n": 2,
            "L": {"n": 2, "subspace": {"ambient": 4, "basis": [
                ["1", "0", "0", "1"], ["0", "1", "-1", "0"]]}},
            "H": [[[0, 2], "1/2"], [[2, 0], "1/2"]],
            "h": 0.001, "tol": 1e-09}


def constrained_json():
    """Canonical on (x1, x3), x2 and x4 frozen, H = (x1^2+x2^2+x3^2)/2."""
    basis = [["1", "0", "0", "0", "0", "0", "1", "0"],
             ["0", "0", "1", "0", "-1", "0", "0", "0"],
             ["0", "0", "0", "0", "0", "1", "0", "0"],
             ["0", "0", "0", "0", "0", "0", "0", "1"]]
    return {"n": 4, "L": {"n": 4, "subspace": {"ambient": 8,
                                                 "basis": basis}},
            "H": [[[0, 0, 2, 0], "1/2"], [[0, 2, 0, 0], "1/2"],
                  [[2, 0, 0, 0], "1/2"]],
            "h": 0.001, "tol": 1e-09}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def render(report):
    """The CLI's report layout (json, sorted keys, two-space indent)."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def body_digest(body):
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()
                          ).hexdigest()


def _get(obj, path):
    for part in path.split("."):
        obj = obj[int(part)] if isinstance(obj, list) else obj[part]
    return obj


def exact_check(command, ok, input_hash, body_sha256, keys, seed=None):
    """Check of a deterministic JSON report.

    `keys` maps a dotted path inside the report body to
    (expected value, one-line source of that value).
    """
    def check(out):
        try:
            rep = json.loads(out)
        except ValueError as e:
            return [f"report is not JSON ({e})"]
        problems = []
        for field, want in (("command", command), ("ok", ok),
                            ("input_hash", input_hash)):
            if rep.get(field) != want:
                problems.append(f"{field} = {rep.get(field)!r}, "
                                f"expected {want!r}")
        body = rep.get("report")
        for path, (want, _source) in keys.items():
            try:
                got = _get(body, path)
            except (KeyError, IndexError, TypeError):
                got = "<missing>"
            if got != want:
                problems.append(f"{path} = {got!r}, expected {want!r}")
        if body_digest(body) != body_sha256:
            problems.append("report body digest differs from the "
                            "recorded one")
        envelope = {"command": command,
                    "engine_version": rep.get("engine_version"),
                    "input_hash": input_hash, "ok": ok, "report": body}
        if seed is not None:
            envelope["seed"] = seed
        if (hashlib.sha256(out).hexdigest()
                != hashlib.sha256(render(envelope)).hexdigest()):
            problems.append("report bytes differ from the expected "
                            "rendering")
        return problems
    return check


def _trajectory_problems(rows, steps, exact):
    """rows: [t, x1..xn, H, residual] floats; exact(t) -> state."""
    problems = []
    if len(rows) != steps + 1:
        return [f"{len(rows)} trajectory rows, expected {steps + 1}"]
    h0 = rows[0][-2]
    worst = 0.0
    for row in rows:
        t, x, energy, res = row[0], row[1:-2], row[-2], row[-1]
        want = exact(t)
        worst = max(worst, max(abs(a - b) for a, b in zip(x, want)),
                    abs(energy - h0))
        if not res <= IHS_TOL:
            problems.append(f"residual {res} at t = {t}")
            break
    if worst > IHS_TOL:
        problems.append(f"max deviation from the closed form {worst:.3g} "
                        f"> {IHS_TOL}")
    if abs(rows[-1][0] - steps * 1e-3) > 1e-9:
        problems.append(f"final time {rows[-1][0]}")
    return problems


def ihs_check(fmt, x0, exact):
    def check(out):
        try:
            text = out.decode()
            if fmt == "csv":
                lines = text.strip().split("\n")
                header = ["t"] + [f"x{i + 1}" for i in range(len(x0))] \
                    + ["H", "residual"]
                if lines[0].split(",") != header:
                    return [f"csv header {lines[0]!r}"]
                rows = [[float(v) for v in ln.split(",")]
                        for ln in lines[1:]]
            else:
                rep = json.loads(text)
                if rep.get("ok") is not True:
                    return ["ok flag is not true"]
                body = rep["report"]
                if body["steps"] != IHS_STEPS:
                    return [f"steps = {body['steps']}"]
                if not body["max_residual"] <= IHS_TOL:
                    return [f"max_residual = {body['max_residual']}"]
                rows = [[float(v) for v in r] for r in body["trajectory"]]
        except (ValueError, KeyError, IndexError) as e:
            return [f"unreadable trajectory ({e})"]
        return _trajectory_problems(rows, IHS_STEPS, exact)
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Digests of the report bodies, recorded at the commit that added the
# benchmark.  Every body is independent of the seed.
BODY = {
    "courant-verify std2":
        "42ae0b56d8c666f1dcc815f74a8a1c2e3410235f7e8d781bd8f61520b6106ae5",
    "courant-verify so3_double":
        "42ae0b56d8c666f1dcc815f74a8a1c2e3410235f7e8d781bd8f61520b6106ae5",
    "courant-verify std1 degree 2":
        "42ae0b56d8c666f1dcc815f74a8a1c2e3410235f7e8d781bd8f61520b6106ae5",
    "theta-master so3_double":
        "40f75d25acf0a5d7da93e48e6458208f63a706a8401f5e3599b5911931f09e59",
    "rothstein-check 3 3":
        "78ab086f121b9b42db21a1c365f4c788c476a2d50c3a1e715ed6a71f568f8248",
    "ce-cohomology filiform_6":
        "de04020894884aab5b5cd397e19aa7c2f72d38ecfb55972ed251757ca0d5afa3",
    "ce-cohomology filiform_7":
        "058530bcd505d51a2cf7ec74cb4b702b2c2e83e015d017ba65481aa112a3621c",
    "deform-lie filiform_6":
        "44c79b2d313bb28f4b5eeb95fa4046b82c2d418fcecb2f49c01ac0bb5532eab8",
    "check-jacobi so3":
        "9861dfc9982cafa370d5e8debc8426f56b93606994d4ecb63d1c1e2239068057",
    "dirac-linear subspace":
        "8990837a636f013eb09638ce7a41bf7512d715a128d0593bdbf5db3fa5390502",
    "dirac-linear two_form":
        "f6ae2ef8d978370afdeb427f2572ecd06b48ee0a78a6068dc11d9268c97cbeaf",
    "dirac-linear bivector":
        "4dd7662eddd202b7c6bc5edd6d33646ff1569da00766400851e893a5eccfaf17",
    "deform-dirac so3_double":
        "6ad3f2c6cd1d2e1f0bdad38d10a61770b45858a3bbc9149ff9937b2ee8cabd09",
    "deform-dirac bialgebra":
        "3d6e863b211379f801ebb4348180a3b712749ffe5f412d2b4ebe744bbb8ab80c",
    "ce-cohomology so3":
        "74826748dcaf53a55baf663ea1946d8349cd6aa0481ed3b605ca9a25824836ff",
    "deform-lie so3":
        "ad4474f9849ce494ef44197ee9839bba61c3817d046dceca36a940c956f03909",
}

AXIOMS_OK = "closed form: a Courant algebroid (standard / Lie-algebra " \
            "double) satisfies every axiom"
RECORDED = "recorded at the commit that added the benchmark"
FLOAT_RANK = "float-rank cross-check (perfbench/selftest.py)"
MU0_ONLY = "closed form: the prefix is mu0 alone, so every R_k = 0 and " \
           "the zero solution extends"


def _identities(names):
    return {f"identities.{n}.ok": (True, AXIOMS_OK) for n in names}


def _write(workdir, name, data):
    (workdir / name).write_bytes(data)
    return name, hashlib.sha256(data).hexdigest()


def _exact(workdir, rng, name, filename, obj, argv, code, ok, keys):
    fname, digest = _write(workdir, filename, _dump(rng, obj))
    return Job(name, argv[:1] + [fname] + argv[1:], code,
               exact_check(argv[0], ok, digest, BODY[name], keys), keys)


def courant_axioms(rng, workdir):
    ident = ["master", "jacobi", "invariance", "defect", "anchor_of_D"]
    verify_keys = dict(_identities(ident), **{
        "ok": (True, AXIOMS_OK),
        "identities.master.residual": ("0", AXIOMS_OK)})
    jobs = [
        _exact(workdir, rng, "courant-verify std2", "std2.json",
               standard_courant_json(rng, 2), ["courant-verify"], 0, True,
               verify_keys),
        _exact(workdir, rng, "courant-verify so3_double", "so3d.json",
               so3_double_json(rng), ["courant-verify"], 0, True,
               verify_keys),
        _exact(workdir, rng, "courant-verify std1 degree 2", "std1.json",
               standard_courant_json(rng, 1),
               ["courant-verify", "--degree", "2"], 0, True, verify_keys),
        _exact(workdir, rng, "theta-master so3_double", "so3d_theta.json",
               so3_double_json(rng), ["theta-master"], 0, True,
               {"master_zero": (True, AXIOMS_OK),
                "residual": ("0", AXIOMS_OK)}),
    ]
    seed = rng.randrange(1, 10 ** 6)
    params = hashlib.sha256(f"rothstein-check|3|3|{seed}".encode()
                            ).hexdigest()
    keys = {"all_zero": (True, "closed form: the r_i are Darboux momenta "
                               "for any connection")}
    jobs.append(Job(
        "rothstein-check 3 3",
        ["rothstein-check", "--m", "3", "--k", "3", "--seed", str(seed)], 0,
        exact_check("rothstein-check", True, params,
                    BODY["rothstein-check 3 3"], keys, seed=seed), keys))
    return jobs


def lie_cohomology(rng, workdir):
    return [
        _exact(workdir, rng, "ce-cohomology filiform_6", "fil6.json",
               lie_json(rng, 6, filiform(6)),
               ["ce-cohomology", "--degrees", "1", "2", "3"], 0, True,
               {"cohomology.H1": (6, FLOAT_RANK),
                "cohomology.H2": (12, FLOAT_RANK),
                "cohomology.H3": (14, FLOAT_RANK)}),
        _exact(workdir, rng, "ce-cohomology filiform_7", "fil7.json",
               lie_json(rng, 7, filiform(7)),
               ["ce-cohomology", "--degrees", "2"], 0, True,
               {"cohomology.H2": (17, FLOAT_RANK)}),
        _exact(workdir, rng, "deform-lie filiform_6", "fil6_deform.json",
               lie_json(rng, 6, filiform(6)),
               ["deform-lie", "--order", "3"], 0, True,
               {"reached_order": (3, MU0_ONLY),
                **{f"certificates.{i}.cocycle_zero": (True, MU0_ONLY)
                   for i in range(3)}}),
    ]


def _ihs_job(workdir, rng, label, obj, fmt, x0, exact):
    fname, _ = _write(workdir, f"{label}.json", _dump(rng, obj))
    argv = ["ihs-run", "--system", fname,
            "--x0=" + ",".join(str(v) for v in x0),
            "--steps", str(IHS_STEPS)]
    if fmt == "csv":
        argv += ["--format", "csv"]
    floats = [float(v) for v in x0]
    return Job(f"ihs-run {label} {fmt}", argv, 0,
               ihs_check(fmt, floats, lambda t: exact(floats, t)))


def _seeded_point(rng, n):
    return [Fraction(rng.randint(-1000, 1000), 1000) for _ in range(n)]


def _oscillator_exact(x0, t):
    a, b = x0
    c, s = math.cos(t), math.sin(t)
    return [a * c + b * s, b * c - a * s]


def _constrained_exact(x0, t):
    a, f2, b, f4 = x0
    c, s = math.cos(t), math.sin(t)
    return [a * c + b * s, f2, b * c - a * s, f4]


def ihs_trajectory(rng, workdir):
    jobs = []
    for fmt in ("json", "csv"):
        jobs.append(_ihs_job(workdir, rng, "oscillator", oscillator_json(),
                             fmt, _seeded_point(rng, 2), _oscillator_exact))
        jobs.append(_ihs_job(workdir, rng, "constrained",
                             constrained_json(), fmt, _seeded_point(rng, 4),
                             _constrained_exact))
    return jobs


def cli_small(rng, workdir):
    so3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}
    whitehead = "closed form: H^k(g, g) = 0 for semisimple g (Whitehead)"
    return [
        _exact(workdir, rng, "check-jacobi so3", "so3_jac.json",
               lie_json(rng, 3, so3), ["check-jacobi"], 0, True,
               {"jacobi": (True, "closed form: so(3) is a Lie algebra")}),
        _exact(workdir, rng, "dirac-linear subspace", "dirac_sub.json",
               {"n": 4, "subspace": _mixed_rows(rng, MIXED_DIRAC)},
               ["dirac-linear"], 0, True,
               {"dim": (4, "closed form: Lagrangian, dim = n"),
                "range_dim": (3, "closed form: range span(e1, e2, e3)"),
                "kernel_dim": (1, "closed form: kernel span(e3)")}),
        _exact(workdir, rng, "dirac-linear two_form", "dirac_form.json",
               {"n": 3, "two_form": _matrix_json(rng, TWO_FORM)},
               ["dirac-linear"], 0, True,
               {"range_dim": (3, "closed form: graph of a two-form"),
                "kernel_dim": (1, "closed form: n - rank(omega)")}),
        _exact(workdir, rng, "dirac-linear bivector", "dirac_biv.json",
               {"n": 4, "bivector": _matrix_json(rng, BIVECTOR)},
               ["dirac-linear"], 0, True,
               {"range_dim": (4, "closed form: rank(pi)"),
                "kernel_dim": (0, "closed form: graph of a bivector")}),
        _exact(workdir, rng, "deform-dirac so3_double", "dd_so3.json",
               {"courant": so3_double_json(rng),
                "prefix": [_prefix_text(rng)]},
               ["deform-dirac", "--order", "3"], 0, True,
               {"reached_order": (3, RECORDED),
                "certificates.1.status": ("EXTENDS", RECORDED)}),
        _exact(workdir, rng, "deform-dirac bialgebra", "dd_bi.json",
               {"courant": bialgebra_json(rng),
                "prefix": [_prefix_text(rng)]},
               ["deform-dirac", "--order", "3"], 1, False,
               {"reached_order": (1, RECORDED),
                "certificates.0.status": ("OBSTRUCTED", RECORDED)}),
        _exact(workdir, rng, "ce-cohomology so3", "so3_coh.json",
               lie_json(rng, 3, so3), ["ce-cohomology"], 0, True,
               {"cohomology.H1": (0, whitehead),
                "cohomology.H2": (0, whitehead),
                "cohomology.H3": (0, whitehead)}),
        _exact(workdir, rng, "deform-lie so3", "so3_def.json",
               lie_json(rng, 3, so3), ["deform-lie"], 0, True,
               {"reached_order": (4, MU0_ONLY)}),
    ]


_MAKERS = {"courant_axioms": courant_axioms,
           "lie_cohomology": lie_cohomology,
           "ihs_trajectory": ihs_trajectory,
           "cli_small": cli_small}


def make_jobs(name, seed, workdir):
    """Write the inputs of workload `name` for `seed`; return its jobs."""
    rng = random.Random(f"{name}:{seed}")
    return _MAKERS[name](rng, workdir)
