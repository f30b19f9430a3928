"""Spans around the program's module boundaries, installed from outside.

The program is not edited: :func:`installed` replaces the names each
poissoncp module looks up at call time with timing wrappers and puts the
originals back on exit.  Spans are aggregated in memory per
``(span, context)``, where the context is the label the benchmark sets
around each operation (a method name for in-process fits, ``cli`` for the
in-process CLI chain).  A span's self time is its duration minus the time
of the spans opened inside it.

The tracer keeps one stack and is for single-threaded use only.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.context = None
        self._stack: list[float] = []  # child time of each open span
        self.seconds = defaultdict(float)  # (span, context) -> inclusive s
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # (counter, context) -> total

    def count(self, name: str, value: float) -> None:
        self.counts[(name, self.context)] += value

    def wrap(self, span: str, fn, on_result=None):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                key = (span, self.context)
                self.seconds[key] += dt
                self.self_seconds[key] += dt - children
                self.calls[key] += 1
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def label(self, context):
        previous, self.context = self.context, context
        try:
            yield
        finally:
            self.context = previous


# ----------------------------------------------------- counters from results

def _row_report(tracer, result):
    _, report = result
    tracer.count("row_solver.rows", 1)
    tracer.count("row_solver.inner_iters", report.iterations)
    tracer.count("row_solver.ls_failures", report.backtrack_failures)
    tracer.count("row_solver.fallback_steps", report.fallback_steps)


def _line_search(tracer, result):
    tracer.count("row_solver.line_search_evals", result.evals)


def _mu_mode(tracer, result):
    tracer.count("baselines.mu_inner_iters", len(result.objectives) - 1)


def wrapped_sites():
    """(owner, attribute, span, counter hook) for every wrapped name."""
    import poissoncp.baselines as baselines
    import poissoncp.cli as cli
    import poissoncp.driver as driver
    import poissoncp.evaluation as evaluation
    import poissoncp.row_solver as row_solver

    return [
        (driver, "solve_row_pdnr", "row_solver.solve", _row_report),
        (driver, "solve_row_pqnr", "row_solver.solve", _row_report),
        (driver, "RowProblem", "row_solver.validate", None),
        (driver, "mu_solve_mode", "baselines.mu_mode", _mu_mode),
        (driver, "mode_kkt_violation", "evaluation.kkt", None),
        (driver, "kl_objective", "kruskal.objective", None),
        (driver, "normalize", "kruskal.normalize", None),
        (driver, "mode_row_positions", "sparse_tensor.group", None),
        (driver, "_pi_product", "kruskal.gather", None),
        (driver, "solve_mode", "driver.solve_mode", None),
        (baselines, "_pi_product", "kruskal.gather", None),
        (evaluation, "_pi_product", "kruskal.gather", None),
        (row_solver, "armijo_projected_search", "row_solver.line_search",
         _line_search),
        (row_solver, "damped_newton_direction", "row_solver.direction", None),
        (row_solver, "partition_variables", "row_solver.partition", None),
        (row_solver, "multiplicative_step", "row_solver.fallback", None),
        (row_solver.LbfgsStore, "direction", "row_solver.direction", None),
        (cli, "fit", "driver.fit", None),
        (cli, "write_trace", "driver.write_trace", None),
        (cli, "generate_dataset", "synth.generate", None),
        (cli, "write_coo", "sparse_tensor.write_coo", None),
        (cli, "read_coo", "sparse_tensor.read_coo", None),
        (cli, "save_model", "kruskal.model_io", None),
        (cli, "load_model", "kruskal.model_io", None),
        (cli, "normalize", "kruskal.normalize", None),
        (cli, "kl_objective", "kruskal.objective", None),
        (cli, "full_kkt_violation", "evaluation.full_kkt", None),
        (cli, "score_greedy", "evaluation.score", None),
        (cli, "exact_zero_count", "evaluation.zero_count", None),
        (cli, "thresholded_zero_count", "evaluation.zero_count", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every site for the duration of the block, then restore the
    original objects, also when the block raises."""
    saved = []
    try:
        for owner, attr, span, hook in wrapped_sites():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------ per-layer

def layer_metrics(tracer: Tracer, traced: dict, methods) -> dict:
    """Per-layer metrics of the traced in-process fits (context = method)
    and of the traced CLI chain (context ``cli``), as (value, unit)."""
    secs, own, calls, counts = (tracer.seconds, tracer.self_seconds,
                                tracer.calls, tracer.counts)
    out = {}
    for m in ("pdnr", "pqnr"):
        iters = counts[("row_solver.inner_iters", m)]
        solve = secs[("row_solver.solve", m)]
        failures = counts[("row_solver.ls_failures", m)]
        out.update({
            f"row_solver.rows.{m}": (counts[("row_solver.rows", m)], "count"),
            f"row_solver.inner_iters.{m}": (iters, "count"),
            f"row_solver.us_per_iter.{m}": (solve / iters * 1e6 if iters else 0.0, "us"),
            f"row_solver.solve_s.{m}": (solve, "s"),
            f"row_solver.validate_s.{m}": (secs[("row_solver.validate", m)], "s"),
            f"row_solver.direction_s.{m}": (secs[("row_solver.direction", m)], "s"),
            f"row_solver.line_search_s.{m}": (secs[("row_solver.line_search", m)], "s"),
            f"row_solver.line_search_evals.{m}": (
                counts[("row_solver.line_search_evals", m)], "count"),
            f"row_solver.partition_s.{m}": (secs[("row_solver.partition", m)], "s"),
            f"row_solver.derivative_s.{m}": (own[("row_solver.solve", m)], "s"),
            f"row_solver.ls_failures.{m}": (failures, "count"),
            f"row_solver.ls_failure_ratio.{m}": (failures / iters if iters else 0.0, "ratio"),
            f"row_solver.fallback_steps.{m}": (
                counts[("row_solver.fallback_steps", m)], "count"),
        })
    out["baselines.mu_mode_s"] = (secs[("baselines.mu_mode", "mu")], "s")
    out["baselines.mu_inner_iters"] = (counts[("baselines.mu_inner_iters", "mu")], "count")
    for m in methods:
        sweeps = traced[m].sweeps if m in traced else 0
        fit_s = secs[("driver.fit", m)]
        out.update({
            f"kruskal.gather_s.{m}": (secs[("kruskal.gather", m)], "s"),
            f"kruskal.gather_calls.{m}": (calls[("kruskal.gather", m)], "count"),
            f"kruskal.objective_s.{m}": (secs[("kruskal.objective", m)], "s"),
            f"kruskal.normalize_s.{m}": (secs[("kruskal.normalize", m)], "s"),
            f"evaluation.kkt_s.{m}": (secs[("evaluation.kkt", m)], "s"),
            f"evaluation.kkt_calls.{m}": (calls[("evaluation.kkt", m)], "count"),
            f"driver.solve_mode_s.{m}": (secs[("driver.solve_mode", m)], "s"),
            f"driver.sweep_s.{m}": (fit_s / sweeps if sweeps else 0.0, "s"),
            f"driver.self_s.{m}": (own[("driver.fit", m)], "s"),
        })
    out["kruskal.model_io_s"] = (secs[("kruskal.model_io", "cli")], "s")
    out["evaluation.full_kkt_s"] = (secs[("evaluation.full_kkt", "cli")], "s")
    out["evaluation.score_s"] = (secs[("evaluation.score", "cli")], "s")
    out["sparse_tensor.write_coo_s"] = (secs[("sparse_tensor.write_coo", "cli")], "s")
    out["sparse_tensor.read_coo_s"] = (secs[("sparse_tensor.read_coo", "cli")], "s")
    out["sparse_tensor.group_s"] = (
        sum(secs[("sparse_tensor.group", m)] for m in methods), "s")
    out["synth.generate_s"] = (secs[("synth.generate", "cli")], "s")
    return out


def probe_metrics(tracer: Tracer, ranks) -> dict:
    """Row-solver cost per inner iteration and iteration counts of the
    rank probes (context ``R<rank>.<method>``)."""
    out = {}
    for rank in ranks:
        for m in ("pdnr", "pqnr"):
            ctx = f"R{rank}.{m}"
            iters = tracer.counts[("row_solver.inner_iters", ctx)]
            solve = tracer.seconds[("row_solver.solve", ctx)]
            out[f"row_solver.us_per_iter.R{rank}.{m}"] = (
                solve / iters * 1e6 if iters else 0.0, "us")
            out[f"row_solver.inner_iters.R{rank}.{m}"] = (iters, "count")
    return out


def at_reference_speed(metrics: dict, speed: float) -> dict:
    """Scale every time (unit s or us) by the sampled host speed."""
    return {name: (value * speed if unit in ("s", "us") else value, unit)
            for name, (value, unit) in metrics.items()}
