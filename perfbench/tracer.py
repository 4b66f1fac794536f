"""Per-layer tracing of one CLI job, installed from outside the package.

`install(job_id)` wraps the functions of every layer module of
`diracdeform` in place: each public module-level function, a few named
private helpers and class methods the metrics need.  A wrapper times the
call, charges its duration to the enclosing call (so that self time =
duration minus the time covered by child spans) and bumps counters read
from the arguments.  A name that the program no longer defines is
skipped and listed in `absent`.

Calls of functions in `HOT` (per-term arithmetic and per-pair brackets,
hundreds of thousands per job) are only aggregated; every other call is
kept as a span (name, start, end, parent span, job id) in memory and
exported when the job ends.

`layer_metrics` turns the exported aggregates of several jobs into the
per-layer metrics named in BENCHMARK.json.
"""

import functools
import importlib
import inspect
import time

LAYERS = ["cli", "superalg", "brackets", "courant", "multilinear",
          "lie_deform", "ratlin", "dirac_linear", "ihs"]

# per-entry helpers: wrapping them would cost more than the work they do
SKIP = {"ratlin.frac"}

# names the metrics are built from, beyond the public module functions
NAMED = [
    "cli._load_json", "cli._emit", "cli.main",
    "superalg.SuperElement.__mul__", "superalg.SuperElement.__rmul__",
    "superalg.SuperElement.partial_even", "superalg.SuperElement.partial_odd",
    "brackets.BracketContext.bracket", "brackets.BracketContext.schouten",
    "brackets.BracketContext.rothstein", "brackets.BracketContext.nabla",
    "brackets.BracketContext.darboux_momenta", "brackets.master_residuals",
    "courant.build_theta", "courant.courant_bracket", "courant.pairing",
    "courant.verify_courant", "courant.deform_extend_dirac",
    "courant.deform_series_dirac",
    "multilinear.ce_differential", "multilinear.nr_bracket",
    "multilinear.is_lie", "multilinear._delta_matrix",
    "multilinear.cohomology", "multilinear.structure_constants_from_json",
    "lie_deform.extend_one_order", "lie_deform.extend_series",
    "lie_deform.mc_residual_lie",
    "ratlin.rref", "ratlin.kernel_basis", "ratlin.solve", "ratlin.rank",
    "ratlin.bareiss_echelon", "ratlin.Subspace.add",
    "ratlin.Subspace.intersect", "ratlin.Subspace.contains",
    "dirac_linear.represent",
    "ihs.IHSystem.integrate", "ihs.IHSystem.velocity_solve",
]

HOT = {
    "superalg.SuperElement.__mul__", "superalg.SuperElement.__rmul__",
    "superalg.SuperElement.partial_even", "superalg.SuperElement.partial_odd",
    "brackets.BracketContext.bracket", "brackets.BracketContext.schouten",
    "brackets.BracketContext.rothstein", "brackets.BracketContext.nabla",
    "courant.courant_bracket", "courant.pairing", "courant.anchor_apply",
    "courant.d_fun", "courant.d_L", "courant.dual_bracket",
    "courant.psi_triple", "multilinear.jacobiator",
    "ihs.IHSystem.velocity_solve", "ihs.poly_eval", "ihs.poly_add",
    "ihs.poly_mul", "ihs.poly_scale", "ihs.poly_diff",
}

class Tracer:
    """Spans and counters of one job.  A frame on `stack` is
    [child_time, name, span_id]."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.stack = []
        self.agg = {}
        self.counters = {}
        self.spans = []
        self.next_span = 0
        self.absent = []
        self.clock = time.perf_counter

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def wrap(self, name, fn):
        stack, clock, spans = self.stack, self.clock, self.spans
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        hook = _HOOKS.get(name)
        hot = name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            if hot:
                span_id = parent = None
            else:
                parent = self._parent_span()
                span_id = self.next_span
                self.next_span += 1
            frame = [0.0, name, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[0]
                if span_id is not None:
                    spans.append((span_id, name, t0, t1, parent,
                                  self.job_id))
        return traced

    def export(self):
        return {"agg": self.agg, "counters": self.counters,
                "spans": self.spans, "absent": self.absent}


# -- counters read from arguments -------------------------------------------

def _mul_pairs(tr, args, kwargs):
    a, b = args[0], args[1]
    terms = getattr(b, "terms", None)
    if isinstance(terms, dict):
        tr.count("superalg.mul_term_pairs", len(a.terms) * len(terms))


def _bracket_entry(tr, args, kwargs):
    if tr.parent_name() == "courant.courant_bracket":
        tr.count("courant.brackets_in_courant_bracket")


def _bracket_call(tr, args, kwargs):
    """A bracket computed, counted by the kind of its context."""
    tr.count("brackets.calls." + args[0].kind)
    _bracket_entry(tr, args, kwargs)


def _nr_bracket(tr, args, kwargs):
    if args[0] is args[1]:
        tr.count("multilinear.jacobi_checks")


def _is_lie(tr, args, kwargs):
    tr.count("multilinear.jacobi_checks")


def _elimination(tr, args, kwargs):
    M = args[0]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    tr.count("ratlin.entries", rows * cols)
    tr.counters["ratlin.max_rows"] = max(
        tr.counters.get("ratlin.max_rows", 0), rows)
    tr.counters["ratlin.max_cols"] = max(
        tr.counters.get("ratlin.max_cols", 0), cols)


def _integrate(tr, args, kwargs):
    steps = args[2] if len(args) > 2 else kwargs.get("steps", 0)
    tr.count("ihs.rk4_steps", steps)


_HOOKS = {
    "superalg.SuperElement.__mul__": _mul_pairs,
    "superalg.SuperElement.__rmul__": _mul_pairs,
    "brackets.BracketContext.bracket": _bracket_entry,
    "brackets.BracketContext.schouten": _bracket_call,
    "brackets.BracketContext.rothstein": _bracket_call,
    "multilinear.nr_bracket": _nr_bracket,
    "multilinear.is_lie": _is_lie,
    "ratlin.rref": _elimination,
    "ratlin.solve": _elimination,
    "ratlin.bareiss_echelon": _elimination,
    "ihs.IHSystem.integrate": _integrate,
}


def _count_calls_from(tr, key, fn, layer):
    """Wrapper that only counts calls made from inside `layer`."""
    prefix = layer + "."

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        name = tr.parent_name()
        if name is not None and name.startswith(prefix):
            tr.count(key)
        return fn(*args, **kwargs)
    return counted


def install(job_id):
    """Wrap every layer of the imported package; return the Tracer."""
    tr = Tracer(job_id)
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module("diracdeform." + layer)
        except ImportError:
            tr.absent.append(layer)
    originals = {}   # id(original function) -> wrapper, for re-binding
    targets = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                    and name not in SKIP):
                targets.append((name, mod, attr))
    wanted = {t[0] for t in targets}
    for name in NAMED:
        if name in wanted:
            continue
        layer, *path = name.split(".")
        owner = modules.get(layer)
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or not inspect.isfunction(
                inspect.getattr_static(owner, path[-1], None)):
            tr.absent.append(name)
            continue
        targets.append((name, owner, path[-1]))
    for name, owner, attr in targets:
        fn = inspect.getattr_static(owner, attr)
        wrapper = tr.wrap(name, fn)
        setattr(owner, attr, wrapper)
        if inspect.ismodule(owner):
            originals[id(fn)] = (fn, wrapper)
    try:
        import numpy.linalg as la
    except ImportError:
        la = None
    for fname in ("lstsq", "svd"):
        if la is None or not hasattr(la, fname):
            tr.absent.append("numpy.linalg." + fname)
            continue
        fn = getattr(la, fname)
        wrapper = _count_calls_from(tr, f"ihs.{fname}_calls", fn, "ihs")
        setattr(la, fname, wrapper)
        originals[id(fn)] = (fn, wrapper)
    # names bound by `from x import y` elsewhere point at the original
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return tr


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def merge(exports):
    """Sum the aggregates and counters of several jobs."""
    agg, counters, absent = {}, {}, set()
    for ex in exports:
        for name, (calls, total, self_s) in ex["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for key, v in ex["counters"].items():
            if key.startswith("ratlin.max_"):
                counters[key] = max(counters.get(key, 0), v)
            else:
                counters[key] = counters.get(key, 0) + v
        absent.update(ex["absent"])
    return agg, counters, sorted(absent)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(agg, counters):
    """Per-layer metrics as {name: (value, unit)} from merged traces.
    `cli.import_s`, `cli.emit_bytes`, `superalg.merge_ns` and
    `trace.overhead_s` are measured outside the traced process."""
    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer):
        return sum(v[2] for n, v in agg.items()
                   if n.startswith(layer + "."))

    c = counters.get
    mul = ("superalg.SuperElement.__mul__", "superalg.SuperElement.__rmul__")
    partial = ("superalg.SuperElement.partial_even",
               "superalg.SuperElement.partial_odd")
    verify = ("courant.verify_courant", "courant.quasi_lemma_check",
              "courant.courant_bracket", "courant.pairing",
              "courant.anchor_apply", "courant.anchor_apply_fun",
              "courant.d_fun")
    deform = ("courant.deform_series_dirac", "courant.deform_extend_dirac",
              "courant.mc_residual_one", "courant.mc_residual_dirac",
              "courant.d_L", "courant.psi_triple", "courant.dual_bracket")
    n_cb = calls("courant.courant_bracket")
    jacobi = c("multilinear.jacobi_checks", 0)
    n_mu = calls("multilinear.structure_constants_from_json")
    s, n, r = "s", "count", "ratio"
    return {
        "cli.load_s": (total("cli._load_json"), s),
        "cli.emit_s": (total("cli._emit"), s),
        "superalg.mul_calls": (calls(*mul), n),
        "superalg.mul_term_pairs": (c("superalg.mul_term_pairs", 0), n),
        "superalg.mul_self_s": (self_s(*mul), s),
        "superalg.partial_calls": (calls(*partial), n),
        "superalg.partial_self_s": (self_s(*partial), s),
        "brackets.calls.ROTHSTEIN": (c("brackets.calls.ROTHSTEIN", 0), n),
        "brackets.calls.SCHOUTEN": (c("brackets.calls.SCHOUTEN", 0), n),
        "brackets.calls.POINT_BIG": (c("brackets.calls.POINT_BIG", 0), n),
        "brackets.nabla_calls": (calls("brackets.BracketContext.nabla"), n),
        "brackets.self_s": (layer_self("brackets"), s),
        "brackets.master_s": (total("brackets.master_residuals"), s),
        "courant.build_theta_s": (total("courant.build_theta"), s),
        "courant.courant_bracket_calls": (n_cb, n),
        "courant.pairing_calls": (calls("courant.pairing"), n),
        "courant.verify_self_s": (self_s(*verify), s),
        "courant.brackets_per_courant_bracket": (
            _ratio(c("courant.brackets_in_courant_bracket", 0), n_cb), r),
        "courant.deform_orders": (calls("courant.deform_extend_dirac"), n),
        "courant.deform_self_s": (self_s(*deform), s),
        "multilinear.ce_differential_calls": (
            calls("multilinear.ce_differential"), n),
        "multilinear.ce_differential_self_s": (
            self_s("multilinear.ce_differential"), s),
        "multilinear.nr_bracket_calls": (calls("multilinear.nr_bracket"), n),
        "multilinear.jacobi_checks": (jacobi, n),
        "multilinear.jacobi_checks_per_mu": (_ratio(jacobi, n_mu), r),
        "multilinear.delta_matrix_calls": (
            calls("multilinear._delta_matrix"), n),
        "multilinear.cohomology_self_s": (
            self_s("multilinear.cohomology", "multilinear._delta_matrix"), s),
        "lie_deform.orders": (calls("lie_deform.extend_one_order"), n),
        "lie_deform.extend_self_s": (
            self_s("lie_deform.extend_one_order", "lie_deform.extend_series",
                   "lie_deform.mc_residual_lie"), s),
        "ratlin.rref_calls": (calls("ratlin.rref"), n),
        "ratlin.kernel_calls": (calls("ratlin.kernel_basis"), n),
        "ratlin.solve_calls": (calls("ratlin.solve"), n),
        "ratlin.rank_calls": (calls("ratlin.rank"), n),
        "ratlin.subspace_add_calls": (calls("ratlin.Subspace.add"), n),
        "ratlin.entries": (c("ratlin.entries", 0), n),
        "ratlin.max_rows": (c("ratlin.max_rows", 0), n),
        "ratlin.max_cols": (c("ratlin.max_cols", 0), n),
        "ratlin.self_s": (layer_self("ratlin"), s),
        "dirac_linear.represent_calls": (calls("dirac_linear.represent"), n),
        "dirac_linear.self_s": (layer_self("dirac_linear"), s),
        "ihs.rk4_steps": (c("ihs.rk4_steps", 0), n),
        "ihs.velocity_solve_calls": (
            calls("ihs.IHSystem.velocity_solve"), n),
        "ihs.velocity_solve_self_s": (
            self_s("ihs.IHSystem.velocity_solve"), s),
        "ihs.integrate_self_s": (self_s("ihs.IHSystem.integrate"), s),
        "ihs.lstsq_calls": (c("ihs.lstsq_calls", 0), n),
        "ihs.svd_calls": (c("ihs.svd_calls", 0), n),
    }
