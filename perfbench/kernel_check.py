#!/usr/bin/env python3
"""Which host-speed kernel tracks an operation's time on a drifting host.

    python3 perfbench/kernel_check.py --workload cli-large --method mu --repeats 15

Repeats one untraced fit of the workload's seed-0 instance with both
``hostspeed`` kernels sampling, and prints the spread (interquartile range
over median) of its raw wall times and of those times scaled by each
kernel, marking the kernel ``run.fit_kernel`` picks.  A kernel tracks the
operation when its spread is well below the raw one; the run should
normalise by the kernel with the smallest spread.  Run it again for every
fit whose bottleneck a change moves (vectorised row solves, say) and
change ``run.fit_kernel`` if the answer changes.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--method", required=True, choices=("pdnr", "pqnr", "mu"))
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    sys.path.insert(0, str(run.SRC))
    import hostspeed
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = W.WORKLOADS[args.workload]
    inputs = W.make_inputs(workload, 0)
    sampler = hostspeed.Sampler(stream=True)
    times = {"raw": [], "python": [], "stream": []}
    with sampler.running():
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            seconds = W.run_fit(workload, inputs, args.method).seconds
            t1 = time.perf_counter()
            times["raw"].append(seconds)
            for kind in ("python", "stream"):
                times[kind].append(seconds * sampler.speed(kind, t0, t1))
    picked = run.fit_kernel(args.method, inputs.tensor.nnz, workload.rank)
    print(f"{args.workload} {args.method}, {args.repeats} fits:")
    for name, values in times.items():
        mark = "  <- run.fit_kernel" if name == picked else ""
        print(f"  {name:<7} median {statistics.median(values):8.4f} s"
              f"  spread {spread(values):.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
