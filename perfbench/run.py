"""Benchmark of the diracdeform CLI: end-to-end times per workload and,
in a separate traced run, work and self time per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from
`src/`.  Each job is a fresh interpreter running the CLI (see child.py),
one job at a time (a closed loop with a single client).  The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a result file with the environment
and per-job figures is written under `.perfbench/results/`.

Untraced (`--trace 0`): the workload's jobs run round-robin, every job
at least once, for S seconds.  Each job run's times are scaled to a
fixed machine speed (see REFERENCE_START_S), for each job the median of
its runs is taken, and the medians are summed over the workload:

  wall_s       spawn to exit: the time a user waits for all verdicts
  compute_s    inside cli.main: parse, compute, emit
  setup_s      spawn to cli.main entry: interpreter start plus import
  peak_rss_mb  largest maximum resident set of any job

Traced (`--trace 1`): each job runs once untraced and once with the
layer wrappers of tracer.py; the per-layer metrics come from the traced
runs, and `trace.overhead_s` is traced minus untraced compute_s.

Every run checks every verdict (see workloads.py); a job with the wrong
exit code or report counts in `failed`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
# a run, set-up included, must end within three minutes
HARD_LIMIT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "compute_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


# The host switches between a fast state and one about 1.7 times slower in
# phases of a fraction of a second to minutes, and a job's time grows
# with the share of it spent in the slow state.  Start-up and import
# (mostly numpy and scipy.linalg, done in C and in the OS) drift on their
# own, by up to a third within a quarter of an hour.  Times are scaled
# by references measured in the same run, two kinds for two kinds of
# work:
#
#   set-up    REFERENCE_START_S / (median time of START_REFERENCE, a fresh
#             interpreter importing numpy and scipy.linalg, timed before
#             the first job and then before every job that starts
#             START_EVERY_S or more after the last reference)
#   the rest  REFERENCE_KERNEL_S / (mean time of the 1 ms kernel that
#             the job's own process timed inside and around `main`,
#             see child.SpeedSampler; the sampler's time is subtracted)
#
# `wall_s` is scaled set-up plus the scaled rest.  The raw sums are kept
# in the result file.
REFERENCE_START_S = 0.5
REFERENCE_KERNEL_S = 0.001
START_REFERENCE = [sys.executable, "-c", "import numpy, scipy.linalg"]
START_EVERY_S = 1.5


class Timeout(Exception):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


PROBE = """
import json, sys
import diracdeform, diracdeform.cli
from diracdeform import superalg
def version(name):
    try:
        return __import__(name).__version__
    except ImportError:
        return None
print(json.dumps({"package": diracdeform.__file__,
                  "kernel": getattr(superalg, "KERNEL", None),
                  "numpy": version("numpy"), "scipy": version("scipy")}))
"""


def die(message):
    """Stop without a result line: the run measured nothing."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def probe():
    """Import the package from src/ once: fails when the checkout holds
    no program, and fills the bytecode cache before anything is timed."""
    if not (SRC / "diracdeform" / "cli.py").is_file():
        die(f"no program to benchmark: {SRC}/diracdeform/cli.py is missing")
    p = subprocess.run([sys.executable, "-c", PROBE], env=child_env(),
                       capture_output=True, timeout=60, cwd=ROOT)
    if p.returncode != 0:
        die("importing diracdeform.cli failed:\n"
            + p.stderr.decode(errors="replace"))
    info = json.loads(p.stdout)
    if not Path(info["package"]).resolve().is_relative_to(SRC.resolve()):
        die(f"diracdeform imported from {info['package']}, not from {SRC}")
    return info


def environment(info, args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(),
            "numpy": info["numpy"], "scipy": info["scipy"],
            "nproc": nproc, "kernel": info["kernel"],
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "machine": platform.machine()}


def run_job(job, workdir, tag, trace):
    """Spawn one job, wait for it, check its verdict."""
    timing = workdir / f"{tag}.timing.json"
    out_path = workdir / f"{tag}.out"
    err_path = workdir / f"{tag}.err"
    argv = [sys.executable, str(CHILD), str(timing), "1" if trace else "0",
            tag, "--"] + job.argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir,
                                env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            raise
        finally:
            proc.returncode = os.waitstatus_to_exitcode(status)
        t_end = now()
    code = proc.returncode
    report = out_path.read_bytes()
    problems = []
    rec = {}
    if code != job.exit_code:
        problems.append(f"exit code {code}, expected {job.exit_code}: "
                        + err_path.read_text(errors="replace")[-400:])
    try:
        rec = json.loads(timing.read_text())
    except (OSError, ValueError):
        problems.append("no timing record")
    if not trace and not rec.get("reference"):
        problems.append("no speed samples")
    problems += job.check(report)
    result = {
        "job": job.name, "tag": tag, "code": code,
        "wall_s": t_end - t_spawn - rec.get("sampler_total", 0.0),
        "setup_s": rec.get("entry", t_end) - t_spawn,
        "import_s": rec.get("imported", 0.0) - rec.get("start", 0.0),
        "compute_s": (rec.get("exit", 0.0) - rec.get("entry", 0.0)
                      - rec.get("sampler_compute", 0.0)),
        "kernel_s": (statistics.fmean(rec["reference"])
                     if rec.get("reference") else None),
        "kernel_samples": len(rec.get("reference", [])),
        "rss_mb": usage.ru_maxrss / 1024.0,
        "report_bytes": len(report),
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "problems": problems,
    }
    return result, rec.get("trace")


def _on_alarm(signum, frame):
    raise Timeout("benchmark run exceeded its time limit")


def start_reference(workdir):
    t0 = now()
    p = subprocess.run(START_REFERENCE, env=child_env(), cwd=workdir,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if p.returncode != 0:
        die("the start-up reference failed:\n"
            + p.stderr.decode(errors="replace"))
    return now() - t0


def scaled(r, start_scale):
    """One job run's times at the reference speeds."""
    rest_scale = REFERENCE_KERNEL_S / (r["kernel_s"] or REFERENCE_KERNEL_S)
    setup = r["setup_s"] * start_scale
    return {"setup_s": setup,
            "compute_s": r["compute_s"] * rest_scale,
            "wall_s": setup + (r["wall_s"] - r["setup_s"]) * rest_scale}


def measure(jobs, workdir, seconds):
    """Untraced closed loop, round-robin, with start-up references in
    between (see START_EVERY_S).  The first round runs every job; after
    it a job starts only if a run as long as its last one still ends
    within `seconds`."""
    results = []
    starts = []
    last_wall = {}
    t0 = now()
    last_start = None
    rnd = 0
    started = True
    while started:
        started = False
        for i, job in enumerate(jobs):
            if rnd > 0 and now() - t0 + last_wall[i] > seconds:
                continue
            if last_start is None or now() - last_start >= START_EVERY_S:
                starts.append(start_reference(workdir))
                last_start = now()
            res, _ = run_job(job, workdir, f"j{i}r{rnd}", trace=False)
            results.append(res)
            last_wall[i] = res["wall_s"]
            started = True
        rnd += 1
    start_scale = REFERENCE_START_S / statistics.median(starts)
    by_job = {}
    for r in results:
        r["scaled"] = scaled(r, start_scale)
        by_job.setdefault(r["job"], []).append(r)
    keys = ("wall_s", "compute_s", "setup_s")
    raw = {k: sum(statistics.median(r[k] for r in runs)
                  for runs in by_job.values()) for k in keys}
    metrics = {k: sum(statistics.median(r["scaled"][k] for r in runs)
                      for runs in by_job.values()) for k in keys}
    metrics["peak_rss_mb"] = max(r["rss_mb"] for r in results)
    detail = {"raw_s": raw, "start_reference_s": starts,
              "scale": metrics["wall_s"] / raw["wall_s"]}
    return (results, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            detail)


def merge_ns(seed):
    p = subprocess.run([sys.executable, str(HERE / "merge_kernel.py"),
                        "--seed", str(seed)], env=child_env(),
                       capture_output=True, timeout=60, cwd=ROOT)
    if p.returncode != 0:
        die("merge-kernel benchmark failed:\n"
            + p.stderr.decode(errors="replace"))
    return json.loads(p.stdout)


def traced(jobs, workdir, seed):
    """One untraced and one traced run of every job."""
    results, exports, spans = [], [], []
    plain_compute = traced_compute = 0.0
    for i, job in enumerate(jobs):
        plain, _ = run_job(job, workdir, f"j{i}plain", trace=False)
        res, export = run_job(job, workdir, f"j{i}traced", trace=True)
        if plain["report_sha256"] != res["report_sha256"]:
            res["problems"].append("traced report differs from the "
                                   "untraced one")
        results += [plain, res]
        plain_compute += plain["compute_s"]
        traced_compute += res["compute_s"]
        if export is not None:
            exports.append(export)
            spans += export.pop("spans")
    agg, counters, absent = tracer.merge(exports)
    metrics = tracer.layer_metrics(agg, counters)
    traced_runs = [r for r in results if r["tag"].endswith("traced")]
    metrics["cli.import_s"] = (sum(r["import_s"] for r in traced_runs), "s")
    metrics["cli.emit_bytes"] = (sum(r["report_bytes"] for r in traced_runs),
                                 "bytes")
    kernel = merge_ns(seed)
    if kernel["merge_ns"] is None:
        absent.append("superalg.merge_monomials")
    metrics["superalg.merge_ns"] = (kernel["merge_ns"] or 0.0, "ns")
    metrics["trace.overhead_s"] = (traced_compute - plain_compute, "s")
    detail = {"aggregates": agg, "counters": counters, "absent": absent,
              "merge_kernel": kernel, "spans": spans}
    return results, metrics, detail


def run_workload(name, args):
    workdir = OUT / "work" / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.make_jobs(name, args.seed, workdir)
        if args.trace:
            results, metrics, detail = traced(jobs, workdir, args.seed)
        else:
            results, metrics, detail = measure(jobs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in results if r["problems"]]
    return {"workload": name, "jobs": len(jobs), "results": results,
            "metrics": metrics, "failed": failed, **detail}


def summary_line(run):
    return {"correct": not run["failed"],
            "attempted": len(run["results"]),
            "failed": len(run["failed"]),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(run["metrics"].items())}}


def write_result(run, env):
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{run['workload']}-seed{env['seed']}-trace{env['trace']}"
    spans = run.pop("spans", None)
    if spans is not None:
        with open(results_dir / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "job"], "spans": spans}, fh)
    payload = dict(run, environment=env, summary=summary_line(run))
    (results_dir / f"{stem}.json").write_text(
        json.dumps(payload, indent=1) + "\n")
    return results_dir / f"{stem}.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S if args.workload != "all"
                 else HARD_LIMIT_S * len(workloads.WORKLOADS))
    info = probe()
    env = environment(info, args)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    runs = []
    for name in names:
        run = run_workload(name, args)
        path = write_result(run, env)
        for r in run["failed"]:
            print(f"FAILED {name} / {r['job']}: {'; '.join(r['problems'])}",
                  file=sys.stderr)
        print(f"== {name} (jobs {run['jobs']}, runs "
              f"{len(run['results'])}, failed {len(run['failed'])}; "
              f"result file {path.relative_to(ROOT)})")
        for k, (v, u) in sorted(run["metrics"].items()):
            print(f"   {k:40s} {v:14.6g} {u}")
        if "raw_s" in run:
            print("   unscaled: " + ", ".join(
                f"{k} {v:.4g} s" for k, v in sorted(run["raw_s"].items()))
                + f"; scale {run['scale']:.4g}")
        runs.append(run)
    signal.alarm(0)
    print("environment: " + json.dumps(env, sort_keys=True))
    if len(runs) == 1:
        line = summary_line(runs[0])
    else:
        lines = [summary_line(r) for r in runs]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {f"{r['workload']}.{k}": v
                            for r, x in zip(runs, lines)
                            for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
