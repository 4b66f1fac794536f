"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout (takes a few minutes).  Checks:

1. the expected cohomology dimensions written into workloads.py agree
   with an independent floating-point rank computation of the
   Chevalley-Eilenberg complex;
2. the verdict checks reject a tampered report;
3. for every workload, two traced runs give reports byte-identical to
   the untraced run and exactly equal counters;
4. each workload stresses the layers it was chosen for: brackets are
   never called on lie_cohomology or ihs_trajectory, the multilinear
   engine never on courant_axioms or ihs_trajectory, the IHS velocity
   solve only on ihs_trajectory, and the layer named in the README
   holds the largest share of traced self time.
"""

import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads


def fail(msg):
    raise SystemExit(f"selftest FAILED: {msg}")


# -- 1. cohomology dimensions by floating-point rank --------------------------

def _bracket_table(dim, table):
    c = {}
    for (a, b, g), v in table.items():
        c.setdefault((a, b), np.zeros(dim))[g] += float(v)
        c.setdefault((b, a), np.zeros(dim))[g] -= float(v)
    return c


def _sorted_with_sign(m, rest):
    """(sign, sorted tuple) of (m,) + rest for sorted `rest`, or None."""
    if m in rest:
        return None
    pos = sum(1 for r in rest if r < m)
    return (-1) ** pos, tuple(sorted(rest + (m,)))


def ce_matrix(dim, c, k):
    """Standard CE differential C^k(g, g) -> C^(k+1)(g, g) in the bases
    {e^idx (x) e_g}."""
    dom = [(idx, g) for idx in itertools.combinations(range(dim), k)
           for g in range(dim)]
    cod = [(idx, g) for idx in itertools.combinations(range(dim), k + 1)
           for g in range(dim)]
    col = {key: n for n, key in enumerate(dom)}
    M = np.zeros((len(cod), len(dom)))
    zero = np.zeros(dim)
    for r, (X, t) in enumerate(cod):
        for i, xi in enumerate(X):
            rest = X[:i] + X[i + 1:]
            for g in range(dim):
                M[r, col[(rest, g)]] += (-1) ** i * c.get((xi, g), zero)[t]
        for i, j in itertools.combinations(range(k + 1), 2):
            br = c.get((X[i], X[j]), zero)
            rest = tuple(x for n, x in enumerate(X) if n not in (i, j))
            for m in range(dim):
                if br[m] == 0:
                    continue
                hit = _sorted_with_sign(m, rest)
                if hit is not None:
                    sign, idx = hit
                    M[r, col[(idx, t)]] += (-1) ** (i + j) * sign * br[m]
    return M


def float_cohomology(dim, table, k):
    c = _bracket_table(dim, table)
    Mk = ce_matrix(dim, c, k)
    rank_k = np.linalg.matrix_rank(Mk) if Mk.size else 0
    rank_prev = 0
    if k > 0:
        Mp = ce_matrix(dim, c, k - 1)
        rank_prev = np.linalg.matrix_rank(Mp) if Mp.size else 0
    return Mk.shape[1] - rank_k - rank_prev


def check_cohomology_dims():
    so3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}
    cases = [("ce-cohomology filiform_6", "lie_cohomology", 6,
              workloads.filiform(6)),
             ("ce-cohomology filiform_7", "lie_cohomology", 7,
              workloads.filiform(7)),
             ("ce-cohomology so3", "cli_small", 3, so3)]
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for job_name, workload, dim, table in cases:
            job = next(j for j in workloads.make_jobs(workload, 0, Path(tmp))
                       if j.name == job_name)
            for path, (want, _source) in job.keys.items():
                if not path.startswith("cohomology.H"):
                    continue
                got = float_cohomology(dim, table, int(path[12:]))
                if got != want:
                    fail(f"{job_name}: float rank gives {path} = {got}, "
                         f"workloads.py expects {want}")
    print("ok  cohomology dimensions agree with float-rank computation")


# -- 2. checks reject wrong output ---------------------------------------------

def check_checks_reject(workdir):
    jobs = {j.name: j for name in ("cli_small", "ihs_trajectory")
            for j in workloads.make_jobs(name, 0, workdir)}
    exact = jobs["ce-cohomology so3"]
    res, _ = run.run_job(exact, workdir, "reject_exact", trace=False)
    good = (workdir / "reject_exact.out").read_bytes()
    if res["problems"]:
        fail(f"untampered report rejected: {res['problems']}")
    for bad in (good.replace(b'"H2": 0', b'"H2": 1'),
                good.replace(b"\n}", b"}"),
                good.replace(b'"ok": true', b'"ok": false')):
        if bad == good or not exact.check(bad):
            fail("a tampered ce-cohomology report passed its check")
    ihs_job = jobs["ihs-run oscillator csv"]
    res, _ = run.run_job(ihs_job, workdir, "reject_ihs", trace=False)
    good = (workdir / "reject_ihs.out").read_bytes()
    if res["problems"]:
        fail(f"untampered trajectory rejected: {res['problems']}")
    lines = good.split(b"\n")
    row = lines[2500].split(b",")
    row[1] = repr(float(row[1]) + 1e-6).encode()
    lines[2500] = b",".join(row)
    if not ihs_job.check(b"\n".join(lines)):
        fail("a trajectory off the closed form passed its check")
    print("ok  verdict checks reject tampered reports")


# -- 3./4. traced runs ---------------------------------------------------------

ZERO = {
    "lie_cohomology": ["brackets.calls.", "ihs.velocity_solve_calls",
                       "superalg.mul_calls", "superalg.partial_calls"],
    "ihs_trajectory": ["brackets.calls.", "multilinear.",
                       "superalg.mul_calls"],
    "courant_axioms": ["multilinear.", "ihs.velocity_solve_calls"],
    "cli_small": ["ihs.velocity_solve_calls"],
}
# layers that hold the largest share of traced self time
DOMINANT = {"courant_axioms": {"brackets", "superalg"},
            "lie_cohomology": {"multilinear", "ratlin"},
            "ihs_trajectory": {"ihs"}}


def layer_self(agg):
    out = {}
    for name, (_, _, self_s) in agg.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def check_workload(name, workdir):
    counts = []
    for attempt in (1, 2):
        jobs = workloads.make_jobs(name, 7, workdir)
        results, metrics, detail = run.traced(jobs, workdir, 7)
        bad = [r for r in results if r["problems"]]
        if bad:
            fail(f"{name}: {bad[0]['job']}: {bad[0]['problems']}")
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count"})
    if detail["absent"]:
        print(f"    {name}: absent from the program (counted as 0): "
              + ", ".join(detail["absent"]))
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                if counts[0][k] != counts[1][k]}
        fail(f"{name}: counters differ between two traced runs: {diff}")
    nonzero = {k: v for k, v in counts[0].items()
               if v and k.startswith(tuple(ZERO[name]))}
    if nonzero:
        fail(f"{name}: expected no calls, got {nonzero}")
    shares = layer_self(detail["aggregates"])
    if name in DOMINANT:
        top = sum(v for k, v in shares.items() if k in DOMINANT[name])
        if top < 0.5 * sum(shares.values()):
            fail(f"{name}: {sorted(DOMINANT[name])} hold only "
                 f"{top:.2f} s of {sum(shares.values()):.2f} s self time")
    else:
        compute = sum(r["compute_s"] for r in results
                      if r["tag"].endswith("traced"))
        if metrics["cli.import_s"][0] < compute:
            fail(f"{name}: import {metrics['cli.import_s'][0]:.2f} s does "
                 f"not dominate compute {compute:.2f} s")
    print(f"ok  {name}: traced reports identical, counters repeat, "
          f"layer shares "
          + json.dumps({k: round(v, 2) for k, v in sorted(shares.items())}))


def main():
    run.probe()
    run.OUT.mkdir(exist_ok=True)
    check_cohomology_dims()
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        check_checks_reject(workdir)
        for name in workloads.WORKLOADS:
            check_workload(name, workdir)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
