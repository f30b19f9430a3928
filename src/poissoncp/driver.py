"""Alternating-mode fitting loop for sparse Poisson CP factorization.

One sweep visits each mode in order, rebuilds that mode's row subproblems
from the nonzeros, solves them with the configured method (damped Newton,
quasi-Newton, or multiplicative updates), and redistributes column mass
into the weight vector.  After every sweep the row KKT violations of all
swept modes are recomputed against the updated model, because solving one
mode changes the Khatri-Rao columns of the others; the fit stops when the
largest violation falls below the tolerance.
"""

from __future__ import annotations

import csv
import functools
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .baselines import mu_solve_mode
from .errors import check_integer, check_number, check_size
from .evaluation import exact_zero_count, mode_kkt_violation
from .kruskal import (MASS_MAX, KruskalModel, _pi_product, _prepared,
                      kl_objective, normalize)
from .row_solver import (
    RowProblem,
    SolverParams,
    lapack_cholesky,
    solve_row_pdnr,
    solve_row_pqnr,
)
from .sparse_tensor import (SparseCountTensor, as_shape, map_row_ranges,
                            mode_row_positions)
from .synth import seeded_rng

__all__ = [
    "METHODS",
    "FitConfig",
    "OuterRecord",
    "FitTrace",
    "FitResult",
    "ModeSweepReport",
    "init_model",
    "solve_mode",
    "fit",
    "write_trace",
]

METHODS = ("pdnr", "pqnr", "mu")

TRACE_HEADER = (
    "outer",
    "mode_kkt_max",
    "objective",
    "exact_zeros",
    "seconds",
    "ls_failures",
    "fallbacks",
)


@dataclass(frozen=True)
class FitConfig:
    """Configuration of one factorization run.

    ``mode1_only`` restricts the sweep to mode 1 (used to study a single
    convex block subproblem).  A fit's row solves stop at its ``tau`` or
    after ``SolverParams``' default ``k_max``; each ``mu`` mode solve runs
    ``baselines.INNER_ITERATIONS`` updates.  ``workers`` is validated (at
    least 1) but has no effect: a mode's rows are split into one range per
    CPU in the process's affinity mask when the mode has at least
    ``sparse_tensor.PARALLEL_MIN_ROWS`` nonempty rows (``pdnr``, ``pqnr``)
    or ``sparse_tensor.PARALLEL_MIN_WORK`` element-updates (``mu``), and
    the models do not depend on the split.  It remains only because the
    benchmark in ``perfbench/`` still passes it.  Building a ``pdnr``
    config loads LAPACK's Cholesky, which only the damped Newton direction
    uses, so that one-time cost (about 15 ms and 4 MB: ``scipy`` and its
    ``_flapack`` extension, not the ``scipy.linalg`` package; see
    ``row_solver.lapack_cholesky``) falls outside ``fit``.
    """

    method: str
    rank: int
    outer_max: int = 200
    tau: float = 1e-4
    time_limit: Optional[float] = None
    seed: int = 0
    mode1_only: bool = False
    workers: int = 1

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        put("method", str(self.method).lower())
        _check_method(self.method)
        put("rank", check_integer("rank", self.rank, 1))
        put("outer_max", check_integer("outer_max", self.outer_max, 1))
        put("tau", check_number("tau", self.tau, positive=True))
        if self.time_limit is not None:
            put("time_limit", check_number("time_limit", self.time_limit,
                                           positive=True))
        put("seed", check_integer("seed", self.seed, 0))
        if not isinstance(self.mode1_only, bool):
            raise ValueError("config field 'mode1_only' is not a valid "
                             f"boolean, got {self.mode1_only!r}")
        put("workers", check_integer("workers", self.workers, 1))
        if self.method == "pdnr":
            lapack_cholesky()

    def check_sizes(self, tensor: SparseCountTensor) -> None:
        """Raise ConfigError when a fit of ``tensor`` at this rank needs
        arrays beyond int64 or physical memory: the ``rank * sum(dims)``
        model entries, or ``nnz * rank`` Khatri-Rao rows, the most one
        gather can take, as a row longer than a block is gathered whole."""
        check_size("rank * sum(dims)", self.rank * sum(tensor.shape.dims))
        check_size("nnz * rank", tensor.nnz * self.rank)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


@dataclass(frozen=True)
class OuterRecord:
    outer: int
    mode_kkt: tuple[float, ...]
    objective: float
    exact_zeros: int
    seconds: float
    line_search_failures: int
    fallback_steps: int

    @property
    def mode_kkt_max(self) -> float:
        return max(self.mode_kkt)


@dataclass
class FitTrace:
    """Per-outer-iteration history of a fit."""

    records: list[OuterRecord] = field(default_factory=list)

    def append(self, record: OuterRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class FitResult:
    """A fit's model, trace and convergence; ``final_kkt`` reads the last
    sweep's largest mode KKT violation from the trace."""

    model: KruskalModel
    trace: FitTrace
    converged: bool

    @property
    def final_kkt(self) -> float:
        return self.trace.records[-1].mode_kkt_max


@dataclass
class ModeSweepReport:
    """Aggregate of the row solves of one mode sweep."""

    mode: int
    rows_solved: int = 0
    inner_iterations: int = 0
    line_search_failures: int = 0
    fallback_steps: int = 0


def init_model(shape, rank: int, seed: int = 0) -> KruskalModel:
    """Random normalized starting model, deterministic per seed.

    Factor entries are drawn uniformly from (0, 1) (exact zeros are
    redrawn), weights start at one, and normalization absorbs the column
    sums into the weights.
    """
    shape = as_shape(shape)
    rng = seeded_rng(seed)
    factors = []
    for dim in shape.dims:
        f = rng.random((dim, rank))
        mask = f == 0.0
        while mask.any():
            f[mask] = rng.random(int(mask.sum()))
            mask = f == 0.0
        factors.append(f)
    return normalize(KruskalModel(np.ones(rank), tuple(factors)))


def _solve_rows(b_matrix, layout, factors, mode0, method, solver, deadline):
    """Solve each nonempty row subproblem, writing results into b_matrix.

    Returns the row reports.  The rows are split into contiguous ranges, one
    per allowed CPU (:func:`poissoncp.sparse_tensor.map_row_ranges`); each
    row's arithmetic is the same in every range, so results do not depend
    on the split.  A wall-clock deadline is honored between row solves
    within each range, keeping each row's result deterministic.
    """
    solve_row = solve_row_pdnr if method == "pdnr" else solve_row_pqnr
    rank = b_matrix.shape[1]
    gather = functools.partial(_pi_product, factors, mode0)

    def solve_range(part):
        reports = []
        for row0, x, pi in part.row_views(rank, gather):
            if deadline is not None and time.perf_counter() > deadline:
                break
            b_matrix[row0], report = solve_row(
                RowProblem(b_matrix[row0], x, pi), solver)
            reports.append(report)
        return reports

    solved = map_row_ranges(layout, b_matrix, solve_range,
                            calls=(solve_row, RowProblem, _pi_product))
    return [report for reports in solved for report in reports]


def solve_mode(tensor: SparseCountTensor, model: KruskalModel, mode: int,
               method: str = "pdnr", solver: Optional[SolverParams] = None,
               deadline=None):
    """Solve the block subproblem of one mode and rescale.

    Rows of the unfolded tensor without nonzeros are set to zero directly
    (their optimum, since the objective restricted to them is sum(b)).
    Afterwards column sums move into the weights, so the returned model is
    normalized.  ``solver`` stops the ``pdnr`` and ``pqnr`` row solves
    (None: ``SolverParams()``).  Returns (model, ModeSweepReport).  Raises
    ValueError for a ``method`` outside :data:`METHODS` or a ``solver``
    that is not SolverParams or None, and ShapeMismatchError when the
    model's dims are not the tensor's.
    """
    _check_method(method)
    if not isinstance(solver, (SolverParams, type(None))):
        raise ValueError("solver must be SolverParams or None")
    model = _prepared(model, tensor)
    layout = mode_row_positions(tensor, mode)
    mode0 = mode - 1
    report = ModeSweepReport(mode=mode)
    if method == "mu":
        b_matrix, objectives = mu_solve_mode(tensor, model, mode)
        report.rows_solved = len(layout)
        report.inner_iterations = len(objectives) - 1
    else:
        b_matrix = np.zeros_like(model.factors[mode0])
        b_matrix[layout.rows] = model.factors[mode0][layout.rows] * model.weights
        reports = _solve_rows(b_matrix, layout, model.factors, mode0, method,
                              solver, deadline)
        report.rows_solved = len(reports)
        report.inner_iterations = sum(r.iterations for r in reports)
        report.line_search_failures = sum(r.backtrack_failures for r in reports)
        report.fallback_steps = sum(r.fallback_steps for r in reports)
    factors = list(model.factors)
    factors[mode0] = b_matrix
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero columns are reported via weights
        model_next = normalize(KruskalModel(np.ones(model.rank), tuple(factors)))
    return model_next, report


def fit(tensor: SparseCountTensor, config: FitConfig,
        init: Optional[KruskalModel] = None) -> FitResult:
    """Alternate mode solves until every swept mode meets the KKT tolerance.

    Stops at convergence, at ``outer_max`` sweeps, or once the time limit is
    exceeded (checked between row solves).  The objective recorded in the
    trace is nonincreasing across sweeps for every method.  Every row
    solve stops at the fit's ``tau``.  Raises ConfigError, a ValueError,
    when :meth:`FitConfig.check_sizes` rejects the tensor at the configured
    rank, and ValueError when the starting model's total mass is not below
    ``kruskal.MASS_MAX``.
    """
    if tensor.nnz == 0:
        raise ValueError("cannot fit an empty tensor")
    config.check_sizes(tensor)
    modes = (1,) if config.mode1_only else tuple(range(1, tensor.ndim + 1))
    model = init if init is not None else init_model(
        tensor.shape, config.rank, config.seed
    )
    with np.errstate(over="ignore"):  # an overflow fails a check here
        model = _prepared(model, tensor)
        if not model.weights.sum() < MASS_MAX:
            raise ValueError("the initial model's total mass overflows: it "
                             f"must stay below {MASS_MAX:.3g}")
    if model.rank != config.rank:
        raise ValueError("initial model rank does not match the config")
    start_objective = kl_objective(model, tensor)
    if not np.isfinite(start_objective):
        raise ValueError(
            "initial model is zero, or too close to zero for the row "
            "solves, at a cell with a positive count"
        )
    # Group before the clock starts, so that no fit time includes it.
    for n in modes:
        mode_row_positions(tensor, n)

    solver = SolverParams(tau=config.tau)
    start = time.perf_counter()
    deadline = None if config.time_limit is None else start + config.time_limit
    trace = FitTrace()
    converged = False
    for outer in range(1, config.outer_max + 1):
        ls_failures = 0
        fallbacks = 0
        for n in modes:
            model, sweep = solve_mode(tensor, model, n, method=config.method,
                                      solver=solver, deadline=deadline)
            ls_failures += sweep.line_search_failures
            fallbacks += sweep.fallback_steps
            if deadline is not None and time.perf_counter() > deadline:
                break
        mode_kkt = tuple(mode_kkt_violation(tensor, model, n) for n in modes)
        trace.append(OuterRecord(
            outer=outer,
            mode_kkt=mode_kkt,
            objective=kl_objective(model, tensor),
            exact_zeros=exact_zero_count(model).total,
            seconds=time.perf_counter() - start,
            line_search_failures=ls_failures,
            fallback_steps=fallbacks,
        ))
        if max(mode_kkt) <= config.tau:
            converged = True
            break
        if deadline is not None and time.perf_counter() > deadline:
            break
    return FitResult(model=model, trace=trace, converged=converged)


def write_trace(trace: FitTrace, path) -> None:
    """Write a fit trace as CSV with one row per outer iteration."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in trace:
            writer.writerow([
                rec.outer,
                f"{rec.mode_kkt_max:.17g}",
                f"{rec.objective:.17g}",
                rec.exact_zeros,
                f"{rec.seconds:.6f}",
                rec.line_search_failures,
                rec.fallback_steps,
            ])
