"""Microbenchmark of the monomial-merge kernel (metric superalg.merge_ns).

    PYTHONPATH=src python3 perfbench/merge_kernel.py --seed N

Times `superalg.merge_monomials`, the kernel the package actually uses,
on seeded super-monomial pairs (4 even generators, 8 odd) and prints one
JSON line with the median nanoseconds per merge over five repeats, the
pure-Python kernel's figure, and the compiled kernel's when it is built
(null for a kernel the package no longer has).
When both kernels exist they must agree on every input before timing.
This figure attributes time inside the superalg layer; it is not an
end-to-end metric.
"""

import argparse
import json
import random
import statistics
import time

from diracdeform import superalg

try:
    from diracdeform import _kernel_py
except ImportError:
    _kernel_py = None
try:
    from diracdeform import _mulkernel
except ImportError:
    _mulkernel = None

N_EVEN, N_ODD, PAIRS, REPEATS = 4, 8, 50000, 5


def make_inputs(rng, n_even, n_odd, pairs):
    out = []
    for _ in range(pairs):
        e1 = tuple(rng.randint(0, 3) for _ in range(n_even))
        e2 = tuple(rng.randint(0, 3) for _ in range(n_even))
        o1 = tuple(sorted(rng.sample(range(n_odd),
                                     rng.randint(0, n_odd // 2))))
        o2 = tuple(sorted(rng.sample(range(n_odd),
                                     rng.randint(0, n_odd // 2))))
        out.append((e1, o1, e2, o2))
    return out


def ns_per_merge(merge, inputs):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for e1, o1, e2, o2 in inputs:
            merge(e1, o1, e2, o2)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(inputs) * 1e9


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    inputs = make_inputs(random.Random(args.seed), N_EVEN, N_ODD, PAIRS)
    if _mulkernel is not None and _kernel_py is not None:
        for e1, o1, e2, o2 in inputs[:2000]:
            if (_mulkernel.merge_monomials(e1, o1, e2, o2)
                    != _kernel_py.merge_monomials(e1, o1, e2, o2)):
                raise SystemExit("compiled and pure kernels disagree on "
                                 f"{(e1, o1, e2, o2)}")

    def timed(module):
        merge = getattr(module, "merge_monomials", None)
        return None if merge is None else ns_per_merge(merge, inputs)

    out = {"kernel": getattr(superalg, "KERNEL", None),
           "merge_ns": timed(superalg),
           "pure_ns": timed(_kernel_py),
           "compiled_ns": timed(_mulkernel)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
