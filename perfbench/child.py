"""Run one CLI job in a fresh interpreter and record its phases.

    python3 perfbench/child.py TIMING_FILE TRACE JOB_ID -- CLI_ARGS...

Does what `python -m diracdeform.cli CLI_ARGS...` does (import the CLI,
call `main`, exit with its code) and writes to TIMING_FILE the
CLOCK_MONOTONIC instants at which this script started, the import
finished, `main` was entered and `main` returned.  The clock is
system-wide, so the parent can subtract its own spawn instant.

With TRACE = 0 a speed sampler (see SpeedSampler) times a fixed small
kernel just before `main`, every SAMPLE_EVERY_S of CPU time inside it
and just after it; the record holds those times and how long the
samples took, so the parent can scale the compute time by the speed of
the host while `main` ran and subtract the sampler's own time.
With TRACE = 1 the layer wrappers of tracer.py are installed after the
import instead, and their export is written too.
"""

import gc
import signal
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# process CPU time between two samples
SAMPLE_EVERY_S = 0.025


class SpeedSampler:
    """Times a fixed 7x7 elimination over Fraction, the kind of work the
    engine does (about 1 ms), from a SIGPROF handler every SAMPLE_EVERY_S
    of the process's CPU time and once on each side.  The host switches
    between a fast state and one about 1.7 times slower in phases of a
    fraction of a second or longer, so samples taken all through `main`
    measure the speed it got.  The collector is off inside the handler
    so that the program's heap is not collected on the kernel's clock."""

    def __init__(self):
        from fractions import Fraction
        self.matrix = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i * j) % 5)
                        for j in range(7)] for i in range(7)]
        self.samples = []

    def kernel(self):
        rows = [list(r) for r in self.matrix]
        for c in range(len(rows)):
            piv = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
            rows[c], rows[piv] = rows[piv], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for i, row in enumerate(rows):
                if i != c and row[c] != 0:
                    f = row[c]
                    rows[i] = [a - f * b for a, b in zip(row, rows[c])]

    def sample(self):
        """Time the kernel once; SIGPROF waits until it is done."""
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGPROF])
        collecting = gc.isenabled()
        gc.disable()
        t0 = now()
        self.kernel()
        t1 = now()
        if collecting:
            gc.enable()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGPROF])
        # the kernel's time, and the sample's whole time to subtract
        self.samples.append((t0, t1 - t0, now() - t0))

    def on_signal(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGPROF, self.on_signal)
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def record(self, t_entry, t_exit):
        """Kernel times (the samples inside `main` and the one on each
        side, so that a `main` shorter than SAMPLE_EVERY_S has two), and
        the time the samples took in all and inside `main`."""
        return {"reference": [k for _, k, _ in self.samples],
                "sampler_total": sum(h for _, _, h in self.samples),
                "sampler_compute": sum(h for t, _, h in self.samples
                                       if t_entry <= t < t_exit)}


def main():
    t_start = now()
    timing_path, trace, job_id, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: child.py TIMING_FILE TRACE JOB_ID -- ARGS")
    argv = sys.argv[5:]
    import diracdeform.cli as cli
    t_imported = now()
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.install(job_id)
    sampler = SpeedSampler() if trace == "0" else None
    if sampler is not None:
        sampler.start()
    t_entry = now()
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
    t_exit = now()
    if sampler is not None:
        sampler.stop()
    sys.stdout.flush()
    import json
    record = {"start": t_start, "imported": t_imported, "entry": t_entry,
              "exit": t_exit, "code": code}
    if sampler is not None:
        record.update(sampler.record(t_entry, t_exit))
    if tracer is not None:
        record["trace"] = tracer.export()
    with open(timing_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
