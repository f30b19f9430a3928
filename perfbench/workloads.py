"""Workloads of the poissoncp benchmark: inputs, timed operations, checks.

Every workload has two parts, each run once per round:

* in-process ``fit`` of ``pdnr``, ``pqnr`` and ``mu`` on one tensor, timed
  by the benchmark around the call;
* the command-line chain ``generate -> factorize -> evaluate``, each stage a
  child interpreter timed from start to exit and reaped with ``os.wait4``;
  it reports its own speed samples and peak RSS (see ``hostspeed``).

The in-process tensor is the workload's generator instance with the index
labels of every mode permuted by ``--seed`` (seed 0 keeps them), and the
starting model permuted to match.  A relabelled instance is the same
problem stored in another order, so time-to-tau does not swing with the
seed as it does between generator seeds (2-5x for ``mu``).  The chain
always generates the workload's base instance, so its files can be checked
byte for byte against recorded digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poissoncp.driver import FitConfig, fit, init_model
from poissoncp.kruskal import KruskalModel
from poissoncp.sparse_tensor import SparseCountTensor
from poissoncp.synth import GenConfig, generate_dataset

METHODS = ("pdnr", "pqnr", "mu")
STAGES = ("generate", "factorize", "evaluate")
STAGE_TIMEOUT_S = 150
BENCH_DIR = Path(__file__).resolve().parent
# A seed without recorded outputs is checked against the default seed's,
# within these relative tolerances (0 = exact).  The relabelled instance
# sums each row's terms in another order.  pdnr and mu absorb that
# roundoff (objectives agree to 1e-15); pqnr's curvature pairs amplify it:
# 20-23 sweeps instead of 21 on acceptance-fit, and after one sweep of
# cli-large objectives up to 0.5% and exact zeros up to 4% apart.
RELABEL_RTOL = {
    "pdnr": {"objective": 1e-7, "sweeps": 0, "exact_zeros": 0.01, "inner_iters": 0.01},
    "mu": {"objective": 1e-7, "sweeps": 0, "exact_zeros": 0.01, "inner_iters": 0},
    "pqnr": {"objective": 0.02, "sweeps": 0.15, "exact_zeros": 0.1, "inner_iters": 0.1},
}
# Agreement of two computations of one objective (evaluate vs trace.csv).
OBJECTIVE_RTOL = 1e-9
# Convergence tolerance of every fit, in-process and in the CLI chain.
TAU = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    rank: int
    samples: int
    gen_seed: int
    outer_max: int  # sweep cap of the in-process fits and the CLI factorize
    converges: bool = False  # every fit must reach tau within outer_max

    def gen_config(self) -> GenConfig:
        return GenConfig(dims=self.dims, rank=self.rank, samples=self.samples,
                         seed=self.gen_seed)


# Why each workload is in the benchmark: see NOTES.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("acceptance-fit", (20, 30, 40), 5, 50_000, 5, outer_max=200,
                 converges=True),
        Workload("short-rows", (2000, 1500, 1000), 10, 30_000, 0, outer_max=1),
        Workload("cli-large", (1000, 800, 600), 10, 500_000, 0, outer_max=1),
    )
}


# ---------------------------------------------------------------- inputs

@dataclass
class Inputs:
    """One workload instance as the program receives it."""

    tensor: SparseCountTensor
    init: KruskalModel
    truth: KruskalModel
    data_term: float  # sum(x log x - x), turns the objective into KL(x | m)


def _permute_rows(model: KruskalModel, perms) -> KruskalModel:
    factors = []
    for f, p in zip(model.factors, perms):
        g = np.empty_like(f)
        g[p] = f
        factors.append(g)
    return KruskalModel(model.weights.copy(), tuple(factors),
                        normalized=model.normalized)


def relabel_perms(dims, seed: int):
    """One permutation of each mode's indices; seed 0 gives identities."""
    if seed == 0:
        return [np.arange(d) for d in dims]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return [rng.permutation(d) for d in dims]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    truth, tensor = generate_dataset(workload.gen_config())
    init = init_model(tensor.shape, workload.rank, seed=0)
    perms = relabel_perms(workload.dims, seed)
    subs = np.column_stack([p[tensor.subs0[:, k]] for k, p in enumerate(perms)])
    tensor = SparseCountTensor.from_arrays(
        workload.dims, subs, tensor.vals, one_based=False
    )
    x = tensor.vals.astype(np.float64)
    return Inputs(
        tensor=tensor,
        init=_permute_rows(init, perms),
        truth=_permute_rows(truth, perms),
        data_term=float(x @ np.log(x) - x.sum()),
    )


# ------------------------------------------------------------- fit part

@dataclass
class FitOutcome:
    method: str
    seconds: float
    sweeps: int
    objective: float  # KL divergence of the final model from the data
    exact_zeros: int
    converged: bool
    objectives: list[float]
    model: KruskalModel = field(repr=False)

    def outputs(self) -> dict:
        return {"sweeps": self.sweeps, "objective": self.objective,
                "exact_zeros": self.exact_zeros}


def run_fit(workload: Workload, inputs: Inputs, method: str,
            fit_fn=fit, workers: int = 1, init=None) -> FitOutcome:
    config = FitConfig(method=method, rank=workload.rank,
                       outer_max=workload.outer_max, tau=TAU,
                       seed=0, workers=workers)
    start = init if init is not None else inputs.init
    t0 = time.perf_counter()
    result = fit_fn(inputs.tensor, config, init=start)
    seconds = time.perf_counter() - t0
    last = result.trace.records[-1]
    return FitOutcome(
        method=method,
        seconds=seconds,
        sweeps=len(result.trace),
        objective=last.objective + inputs.data_term,
        exact_zeros=last.exact_zeros,
        converged=result.converged,
        objectives=[r.objective for r in result.trace],
        model=result.model,
    )


# ----------------------------------------------------------- CLI chain

@dataclass
class StageOutcome:
    stage: str
    seconds: float  # wall time from start to exit
    exit_code: int
    peak_rss_mb: float  # the child's VmHWM (ru_maxrss if it failed)
    speed: float = 1.0  # the child's Python-kernel speed (hostspeed)

    @property
    def ref_seconds(self) -> float:
        """Wall time at reference speed."""
        return self.seconds * self.speed


@dataclass
class ChainOutcome:
    stages: list[StageOutcome]
    outputs: dict  # non-timing outputs, compared with the reference
    objectives: list[float]  # trace.csv objective per sweep

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    @property
    def ref_seconds(self) -> float:
        return sum(s.ref_seconds for s in self.stages)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.peak_rss_mb for s in self.stages)


def write_chain_configs(workload: Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    gen = {"dims": list(workload.dims), "rank": workload.rank,
           "samples": workload.samples, "seed": workload.gen_seed}
    fac = {"method": "pdnr", "rank": workload.rank, "tau": TAU,
           "outer_max": workload.outer_max, "seed": 0, "workers": 1,
           "tensor": str(workdir / "data" / "tensor.coo")}
    (workdir / "generate.json").write_text(json.dumps(gen) + "\n")
    (workdir / "factorize.json").write_text(json.dumps(fac) + "\n")


def stage_argv(workdir: Path) -> dict:
    data, fitdir = workdir / "data", workdir / "fit"
    return {
        "generate": ["generate", "--config", str(workdir / "generate.json"),
                     "--output-dir", str(data)],
        "factorize": ["factorize", "--config", str(workdir / "factorize.json"),
                      "--output-dir", str(fitdir)],
        "evaluate": ["evaluate", "--model", str(fitdir / "model.json"),
                     "--truth", str(data / "truth_model.json"),
                     "--tensor", str(data / "tensor.coo"),
                     "--output", str(workdir / "evaluate.json")],
    }


# A child runs poissoncp.cli.main under a host-speed sampler; "--import-only"
# just imports the CLI (the set-up's warm-up).
CHILD_CODE = ("import sys; sys.path.insert(0, {bench!r}); import hostspeed; "
              "hostspeed.child_main()").format(bench=str(BENCH_DIR))


class _StageTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _StageTimeout()


def run_child(args, src: Path, log: Path, sampler=None) -> StageOutcome:
    """Run one sampled CLI child and wait for it with ``os.wait4``.

    The parent's ``sampler`` is paused meanwhile, since the child samples
    itself.  A child still running after STAGE_TIMEOUT_S is killed and
    reaped, and counts as failed (exit code -1).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    speed_file = log.with_suffix(".speed.json")
    speed_file.unlink(missing_ok=True)
    env["PERFBENCH_SPEED_OUT"] = str(speed_file)
    with contextlib.ExitStack() as stack:
        if sampler is not None:
            stack.enter_context(sampler.paused())
        out = stack.enter_context(open(log, "w"))
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        stack.callback(signal.signal, signal.SIGALRM, previous)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD_CODE, *args],
                                stdout=out, stderr=subprocess.STDOUT, env=env)
        try:
            signal.alarm(STAGE_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            seconds = time.perf_counter() - t0
            exit_code = os.waitstatus_to_exitcode(status)
        except _StageTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds, exit_code = time.perf_counter() - t0, -1
        proc.returncode = exit_code  # already reaped; keep Popen from waiting
    speed, peak_kb = 1.0, usage.ru_maxrss
    if exit_code == 0:
        report = json.loads(speed_file.read_text())
        speed, peak_kb = report["speed"], report["peak_rss_kb"]
    return StageOutcome(stage=log.stem, seconds=seconds, exit_code=exit_code,
                        peak_rss_mb=peak_kb / 1024.0, speed=speed)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_trace(path: Path):
    """trace.csv rows without the timing column, and the objectives."""
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    seconds = header.index("seconds")
    kept = [",".join(v for i, v in enumerate(r.split(",")) if i != seconds)
            for r in rows[1:]]
    objectives = [float(r.split(",")[header.index("objective")])
                  for r in rows[1:]]
    return kept, objectives


def chain_outputs(workdir: Path) -> tuple[dict, list[float]]:
    data, fitdir = workdir / "data", workdir / "fit"
    with open(data / "tensor.coo") as fh:
        nnz = sum(1 for _ in fh) - 1
    trace_rows, objectives = read_trace(fitdir / "trace.csv")
    report = json.loads((workdir / "evaluate.json").read_text())
    outputs = {
        "nnz": nnz,
        "tensor_sha256": sha256_file(data / "tensor.coo"),
        "model_sha256": sha256_file(fitdir / "model.json"),
        "trace": trace_rows,
        "score": report["score"],
        "exact_zeros": report["exact_zeros"]["total"],
        "kkt_max": report["kkt_max"],
        "objective": report["objective"],
    }
    return outputs, objectives


def run_chain(workdir: Path, src: Path, sampler=None) -> ChainOutcome:
    argv = stage_argv(workdir)
    stages = []
    for stage in STAGES:
        outcome = run_child(argv[stage], src, workdir / f"{stage}.log", sampler)
        stages.append(outcome)
        if outcome.exit_code != 0:
            return ChainOutcome(stages, {}, [])
    outputs, objectives = chain_outputs(workdir)
    return ChainOutcome(stages, outputs, objectives)


def run_chain_in_process(workdir: Path, main) -> dict:
    """The chain through ``poissoncp.cli.main`` in this process, so that
    wrappers installed on module names see it; returns exit codes."""
    argv = stage_argv(workdir)
    codes = {}
    for stage in STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[stage] = main(argv[stage])
    return codes


# -------------------------------------------------------------- checks

def nonincreasing(values, slack: float = 1e-9) -> bool:
    return all(b <= a + slack * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def compare(label: str, got, want, rtol: float = 0.0) -> list[str]:
    """Mismatch messages for one output; exact unless ``rtol`` is set."""
    if rtol:
        ok = math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)
    else:
        ok = got == want
    return [] if ok else [f"{label}: got {got!r}, expected {want!r}"]


def check_outputs(method: str, got: dict, ref: dict, exact: bool) -> list[str]:
    """Compare the outputs present in ``got`` with the reference: exactly
    for a recorded seed, within RELABEL_RTOL for any other."""
    errors = []
    for key, value in got.items():
        errors += compare(f"{method}.{key}", value, ref[key],
                          0.0 if exact else RELABEL_RTOL[method][key])
    return errors


def check_fit(outcome: FitOutcome, ref: dict, exact: bool,
              converges: bool) -> list[str]:
    errors = check_outputs(outcome.method, outcome.outputs(), ref, exact)
    if converges and not outcome.converged:
        errors.append(f"{outcome.method}: did not reach tau")
    if not nonincreasing(outcome.objectives):
        errors.append(f"{outcome.method}: objective increased between sweeps")
    return errors


# Which stage produces each chain output, so that a mismatch fails that stage.
CHAIN_OUTPUT_STAGE = {
    "nnz": "generate", "tensor_sha256": "generate",
    "model_sha256": "factorize", "trace": "factorize",
    "score": "evaluate", "exact_zeros": "evaluate", "kkt_max": "evaluate",
    "objective": "evaluate",
}


def check_chain(chain: ChainOutcome, ref: dict) -> dict:
    """Mismatch messages per stage: exit codes, outputs against the
    reference, a nonincreasing trace and an evaluate objective that agrees
    with the trace."""
    errors = {s.stage: ([] if s.exit_code == 0 else [f"exit code {s.exit_code}"])
              for s in chain.stages}
    if any(errors.values()) or len(chain.stages) < len(STAGES):
        return errors
    for key, want in ref.items():
        errors[CHAIN_OUTPUT_STAGE[key]] += compare(
            f"chain.{key}", chain.outputs[key], want)
    if not nonincreasing(chain.objectives):
        errors["factorize"].append("trace.csv objective increased between sweeps")
    if not math.isclose(chain.outputs["objective"], chain.objectives[-1],
                        rel_tol=OBJECTIVE_RTOL):
        errors["evaluate"].append("evaluate objective disagrees with trace.csv")
    return errors
