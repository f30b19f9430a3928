#!/usr/bin/env python3
"""Benchmark of poissoncp: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload acceptance-fit --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` beside this directory and its CLI is
run as child interpreters with that ``src/`` on ``PYTHONPATH``; nothing is
installed.  Work files go to ``.perfbench_work/`` at the checkout root.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
# Set-ups per run (setup_s is their median): at least MIN_SETUPS, more
# while they have taken under SETUP_BUDGET_S, up to MAX_SETUPS.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 3.0
# A fit shorter than this is repeated within a round, so that short fits
# get as many samples as long ones.
MIN_FIT_S = 1.0
# A mu fit makes whole-tensor numpy passes over nnz x R doubles; beyond
# four times the 2 MB L2 of the development host they stream from L3 and
# memory, so such fits are normalised by the stream kernel.  Everything
# else (row solvers, smaller mu fits, set-up, CLI stages, traced layers)
# is bound by Python and numpy call overhead and uses the Python kernel.
# kernel_check.py measures which kernel tracks an operation.
STREAM_BYTES = 8 << 20
PROBE_RANKS = (5, 20, 50)
MAX_MESSAGES = 20


def fit_kernel(method: str, nnz: int, rank: int) -> str:
    """The hostspeed kernel that normalises an untraced fit's time."""
    return "stream" if method == "mu" and nnz * rank * 8 > STREAM_BYTES else "python"


class Tally:
    """Operations attempted and failed, with the first mismatch messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages += [f"{label}: {e}" for e in errors]


def rotated(seq, k: int):
    k %= len(seq)
    return tuple(seq[k:]) + tuple(seq[:k])


class Bench:
    """One run of one workload; the measuring methods return metrics."""

    def __init__(self, workload, seed: int, seconds: float, reference: dict):
        import hostspeed

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.ref = reference[workload.name]
        seed_ref = self.ref["seeds"].get(str(seed))
        self.exact = seed_ref is not None
        self.fit_ref = (seed_ref or self.ref["seeds"]["0"])["fit"]
        self.tally = Tally()
        self.sampler = hostspeed.Sampler(
            stream=fit_kernel("mu", self.ref["nnz"], workload.rank) == "stream")
        self.workdir = WORK / workload.name
        self.inputs = None
        self.setup_s: list[float] = []  # at reference speed
        self.import_s: list[float] = []  # at reference speed
        self.fit_s = {}  # method -> untraced fit times at reference speed
        # Operation (``fit_s.<m>``, ``traced.fit_s.<m>``, ``setup_s``,
        # ``chain_s``) -> raw wall times, and fit times scaled by the
        # Python kernel whatever fit_kernel says.
        self.wall_s = defaultdict(list)
        self.python_s = defaultdict(list)

    # ----------------------------------------------------------- set-up

    def setup(self) -> None:
        """Warm a child interpreter's import, build the in-process input and
        write the CLI configs; repeated as MIN_SETUPS and its neighbours say."""
        import workloads as W

        self.workdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        while len(self.setup_s) < MIN_SETUPS or (
                len(self.setup_s) < MAX_SETUPS
                and time.perf_counter() - start < SETUP_BUDGET_S):
            child = W.run_child(["--import-only"], SRC,
                                self.workdir / "import.log", self.sampler)
            t0 = time.perf_counter()
            self.inputs = W.make_inputs(self.workload, self.seed)
            W.write_chain_configs(self.workload, self.workdir / "chain")
            t1 = time.perf_counter()
            errors = [] if child.exit_code == 0 else [
                f"import poissoncp.cli exited {child.exit_code}"]
            errors += W.compare("nnz", self.inputs.tensor.nnz, self.ref["nnz"])
            self.tally.record("setup", errors)
            self.setup_s.append(child.ref_seconds + self.at_reference(t0, t1))
            self.import_s.append(child.ref_seconds)
            self.wall_s["setup_s"].append(child.seconds + t1 - t0)

    def at_reference(self, t0: float, t1: float) -> float:
        """In-process set-up wall time t1 - t0 at reference speed."""
        return (t1 - t0) * self.sampler.speed("python", t0, t1)

    # ------------------------------------------------------- operations

    def fit(self, method: str, fit_fn=None, tracer=None):
        """One checked in-process fit; None when it raised."""
        import workloads as W

        t0 = time.perf_counter()
        try:
            outcome = W.run_fit(self.workload, self.inputs, method, fit_fn or W.fit)
        except Exception as exc:  # a failed operation, reported and counted
            self.tally.record(f"fit {method}", [repr(exc)])
            return None
        t1 = time.perf_counter()
        key = f"fit_s.{method}" if fit_fn is None else f"traced.fit_s.{method}"
        self.wall_s[key].append(outcome.seconds)
        self.python_s[key].append(
            outcome.seconds * self.sampler.speed("python", t0, t1))
        if fit_fn is None:
            kind = fit_kernel(method, self.inputs.tensor.nnz, self.workload.rank)
            self.fit_s.setdefault(method, []).append(
                outcome.seconds * self.sampler.speed(kind, t0, t1))
        ref = self.fit_ref[method]
        errors = W.check_fit(outcome, ref, self.exact, self.workload.converges)
        if tracer is not None:
            iters = inner_iterations(tracer, method)
            errors += W.check_outputs(method, {"inner_iters": iters}, ref,
                                      self.exact)
        self.tally.record(f"fit {method}", errors)
        return outcome

    def check_method_agreement(self, outcomes: dict) -> None:
        """Exact zeros of pdnr and pqnr agree where both converge."""
        if self.workload.converges and outcomes.get("pdnr") and outcomes.get("pqnr"):
            zeros = (outcomes["pdnr"].exact_zeros, outcomes["pqnr"].exact_zeros)
            self.tally.record("exact zeros pdnr == pqnr", [] if zeros[0] == zeros[1]
                              else [f"pdnr {zeros[0]}, pqnr {zeros[1]}"])

    def chain(self):
        """One checked subprocess chain, each stage one operation."""
        import workloads as W

        workdir = self.workdir / "chain"
        for stale in ("data", "fit"):
            shutil.rmtree(workdir / stale, ignore_errors=True)
        try:
            chain = W.run_chain(workdir, SRC, self.sampler)
        except Exception as exc:
            self.tally.record("chain", [repr(exc)])
            return None
        errors = W.check_chain(chain, self.ref["chain"])
        for stage in W.STAGES:
            self.tally.record(f"cli {stage}", errors.get(stage, ["not run"]))
        if chain.outputs:
            self.wall_s["chain_s"].append(chain.seconds)
        return chain

    def timed_round(self, index: int, fits: dict, chains: list) -> None:
        import workloads as W

        outcomes = {}
        for method in rotated(W.METHODS, index):
            spent = 0.0
            while spent < MIN_FIT_S:
                outcome = self.fit(method)
                if outcome is None:
                    break
                outcomes[method] = outcome
                fits[method].append(outcome)
                spent += outcome.seconds
        self.check_method_agreement(outcomes)
        chain = self.chain()
        if chain is not None:
            chains.append(chain)

    # ------------------------------------------------------------ runs

    def run_timed(self) -> dict:
        import workloads as W

        fits = {m: [] for m in W.METHODS}
        chains = []
        with self.sampler.running():
            self.setup()
            deadline = time.perf_counter() + self.seconds
            index = 0
            while True:
                t0 = time.perf_counter()
                self.timed_round(index, fits, chains)
                index += 1
                now = time.perf_counter()
                if now + (now - t0) > deadline:
                    break
        return self.end_to_end(fits, chains)

    def end_to_end(self, fits: dict, chains: list) -> dict:
        metrics = {"setup_s": (statistics.median(self.setup_s), "s")}
        for method, outcomes in fits.items():
            if not outcomes:
                continue
            last = outcomes[-1]
            metrics[f"fit_s.{method}"] = (statistics.median(self.fit_s[method]), "s")
            metrics[f"sweeps.{method}"] = (last.sweeps, "count")
            metrics[f"objective.{method}"] = (last.objective, "nats")
        good = [c for c in chains if c.outputs]
        if good:
            metrics["chain_s"] = (statistics.median(c.ref_seconds for c in good), "s")
            metrics["peak_rss_mb"] = (max(c.peak_rss_mb for c in good), "MB")
            metrics["recovery_score"] = (good[-1].outputs["score"], "score")
        return metrics

    def run_traced(self) -> dict:
        import poissoncp.cli as cli
        import tracing
        import workloads as W

        fits = {m: [] for m in W.METHODS}
        chains = []
        tracer = tracing.Tracer()
        traced = {}
        probe_data = W.make_inputs(W.WORKLOADS["acceptance-fit"], 0)
        with self.sampler.running():
            self.setup()
            self.timed_round(0, fits, chains)
            t0 = time.perf_counter()
            with tracing.installed(tracer):
                fit_fn = tracer.wrap("driver.fit", W.fit)
                for method in W.METHODS:
                    with tracer.label(method):
                        outcome = self.fit(method, fit_fn, tracer)
                    if outcome is not None:
                        traced[method] = outcome
                self.check_method_agreement(traced)
                with tracer.label("cli"):
                    coo_mb = self.traced_chain(cli.main)
                for rank in PROBE_RANKS:
                    for method in ("pdnr", "pqnr"):
                        with tracer.label(f"R{rank}.{method}"):
                            self.rank_probe(probe_data, rank, method)
            speed = self.sampler.speed("python", t0, time.perf_counter())
            workers2 = self.workers_probe(probe_data)

        metrics = tracing.layer_metrics(tracer, traced, W.METHODS)
        metrics.update(tracing.probe_metrics(tracer, PROBE_RANKS))
        metrics = tracing.at_reference_speed(metrics, speed)
        metrics["sparse_tensor.coo_mb"] = (coo_mb, "MB")
        metrics["driver.workers2_ratio"] = (workers2, "ratio")
        metrics["cli.import_s"] = (statistics.median(self.import_s), "s")
        stages = {s.stage: s for c in chains[:1] for s in c.stages}
        for stage in W.STAGES:
            if stage in stages:
                metrics[f"cli.{stage}_s"] = (stages[stage].ref_seconds, "s")
                metrics[f"cli.peak_rss_mb.{stage}"] = (stages[stage].peak_rss_mb, "MB")
        # Traced over untraced fit time, both sides scaled by the Python
        # kernel; the untraced side is the median of the round's repetitions.
        both = [m for m in traced if self.python_s[f"fit_s.{m}"]]
        untraced = sum(statistics.median(self.python_s[f"fit_s.{m}"]) for m in both)
        metrics["tracing.overhead_ratio"] = (
            sum(self.python_s[f"traced.fit_s.{m}"][0] for m in both) / untraced
            if untraced else 0.0, "ratio")
        wall = self.wall_medians()
        for name in [f"fit_s.{m}" for m in W.METHODS] + ["chain_s"]:
            if name in wall:
                metrics[f"wall.{name}"] = (wall[name], "s")
        metrics["host.kernel_ms"] = (self.sampler.mean_kernel_s("python") * 1e3, "ms")
        metrics["host.stream_kernel_ms"] = (self.sampler.mean_kernel_s("stream") * 1e3, "ms")
        return metrics

    def wall_medians(self) -> dict:
        """Median raw wall time of each operation over the run."""
        return {name: statistics.median(times)
                for name, times in self.wall_s.items() if times}

    def traced_chain(self, main) -> float:
        """The CLI chain in this process under the tracer; returns the COO
        file size in MB."""
        import workloads as W

        workdir = self.workdir / "chain-traced"
        W.write_chain_configs(self.workload, workdir)
        try:
            codes = W.run_chain_in_process(workdir, main)
            chain = W.ChainOutcome(
                [W.StageOutcome(s, 0.0, codes[s], 0.0) for s in W.STAGES], {}, [])
            if all(code == 0 for code in codes.values()):
                chain.outputs, chain.objectives = W.chain_outputs(workdir)
        except Exception as exc:
            self.tally.record("traced chain", [repr(exc)])
            return 0.0
        errors = W.check_chain(chain, self.ref["chain"])
        for stage in W.STAGES:
            self.tally.record(f"traced cli {stage}", errors.get(stage))
        coo = workdir / "data" / "tensor.coo"
        return coo.stat().st_size / 1e6 if coo.exists() else 0.0

    def rank_probe(self, data, rank: int, method: str) -> None:
        """One capped sweep at another rank on fixed data (not checked
        against a reference; only that it runs)."""
        import workloads as W

        probe = replace(W.WORKLOADS["acceptance-fit"], rank=rank, outer_max=1)
        init = W.init_model(data.tensor.shape, rank, seed=0)
        try:
            W.run_fit(probe, data, method, init=init)
            self.tally.record(f"probe R{rank} {method}", [])
        except Exception as exc:
            self.tally.record(f"probe R{rank} {method}", [repr(exc)])

    def workers_probe(self, data) -> float:
        """Time of pdnr to tau with two workers over one worker, on fixed
        data, in the order 1, 2, 2, 1."""
        import workloads as W

        acc = W.WORKLOADS["acceptance-fit"]
        seconds = {1: 0.0, 2: 0.0}
        for workers in (1, 2, 2, 1):
            try:
                out = W.run_fit(acc, data, "pdnr", workers=workers)
            except Exception as exc:
                self.tally.record(f"probe workers={workers}", [repr(exc)])
                return 0.0
            ref = self.reference["acceptance-fit"]["seeds"]["0"]["fit"]["pdnr"]
            errors = W.check_outputs("pdnr", out.outputs(), ref, True)
            self.tally.record(f"probe workers={workers}", errors)
            seconds[workers] += out.seconds
        return seconds[2] / seconds[1]


def inner_iterations(tracer, method: str) -> int:
    counter = "baselines.mu_inner_iters" if method == "mu" else "row_solver.inner_iters"
    return int(tracer.counts.get((counter, method), 0))


# ---------------------------------------------------------------- report

def machine_record() -> dict:
    import numpy as np
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": None,
        "src_sha256": source_digest(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            record["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            record["commit"] = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return record


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "poissoncp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def result_line(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    import workloads as W

    bench = Bench(W.WORKLOADS[name], seed, seconds, reference)
    metrics = bench.run_traced() if trace else bench.run_timed()
    result = result_line(bench.tally, metrics)
    machine = machine_record()
    WORK.mkdir(parents=True, exist_ok=True)
    wall = bench.wall_medians()
    kinds = ("python", "stream") if bench.sampler.stream else ("python",)
    kernel_ms = {kind: bench.sampler.mean_kernel_s(kind) * 1e3 for kind in kinds}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine, "wall_s": wall,
              "kernel_ms": kernel_ms, "messages": bench.tally.messages, **result}
    out = WORK / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"machine {json.dumps(machine)}")
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for message in bench.tally.messages[:MAX_MESSAGES]:
        print(f"  mismatch {message}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<40} {value:>16.6g} {unit}")
    kernels = ", ".join(f"{kind} {ms:.3f} ms" for kind, ms in kernel_ms.items())
    print(f"raw wall medians (not normalised); mean kernel time {kernels}:")
    for metric, value in wall.items():
        print(f"  {metric:<40} {value:>16.6g} s")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="acceptance-fit, short-rows, cli-large or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poissoncp" / "__init__.py").is_file():
        print(f"error: no poissoncp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import poissoncp

    if Path(poissoncp.__file__).resolve().parent != SRC / "poissoncp":
        print(f"error: imported poissoncp from {poissoncp.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in W.WORKLOADS:
            print(f"error: unknown workload {name!r}", file=sys.stderr)
            return 2
    reference = json.loads(REFERENCE.read_text())
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace),
                         reference)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
