#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py

For every workload it records, for the default seed 0 and the held-out seed
HELD_OUT_SEED, the non-timing outputs of the traced in-process fits (sweeps,
KL objective, exact zeros, inner iterations), the input's nnz, and the
outputs of one CLI chain (file digests, trace rows without timings, the
evaluate report).  Re-record only when a change to the program is meant to
change these outputs, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

HELD_OUT_SEED = 1


def record_fits(workload, seed: int) -> dict:
    import tracing
    import workloads as W

    inputs = W.make_inputs(workload, seed)
    tracer = tracing.Tracer()
    fits = {}
    with tracing.installed(tracer):
        fit_fn = tracer.wrap("driver.fit", W.fit)
        for method in W.METHODS:
            with tracer.label(method):
                outcome = W.run_fit(workload, inputs, method, fit_fn)
            fits[method] = {**outcome.outputs(),
                            "inner_iters": run.inner_iterations(tracer, method)}
    return {"fit": fits}, inputs.tensor.nnz


def record_chain(workload) -> dict:
    import workloads as W

    workdir = run.WORK / "record" / workload.name
    W.write_chain_configs(workload, workdir)
    chain = W.run_chain(workdir, run.SRC)
    failed = [s.stage for s in chain.stages if s.exit_code != 0]
    if failed:
        raise SystemExit(f"{workload.name}: CLI stage {failed[0]} failed; "
                         f"see {workdir}")
    return chain.outputs


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads as W

    reference = {}
    for name, workload in W.WORKLOADS.items():
        seeds = {}
        for seed in (0, HELD_OUT_SEED):
            seeds[str(seed)], nnz = record_fits(workload, seed)
        reference[name] = {"nnz": nnz, "seeds": seeds,
                           "chain": record_chain(workload)}
        print(f"recorded {name}: {json.dumps(seeds)}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
