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
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import row_solver
from .baselines import mu_solve_mode
from .errors import check_integer, check_number, check_size
from .evaluation import exact_zero_count, mode_kkt_violation
from .kruskal import (MASS_MAX, KruskalModel, _pi_product, _prepared,
                      kl_objective, normalize)
from .row_solver import (
    ROW_TAU,
    RowProblem,
    lapack_cholesky,
    solve_row_pdnr,
    solve_row_pqnr,
)
from .sparse_tensor import (RowRangePool, SparseCountTensor, as_shape,
                            block_rows, map_row_ranges, mode_row_positions)
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
    after ``row_solver.K_MAX`` iterations; each ``mu`` mode solve runs
    ``baselines.INNER_ITERATIONS`` updates.  ``workers`` is validated (at
    least 1) but has no effect: a mode's rows are split into one range per
    CPU in the process's affinity mask when the mode has at least
    ``sparse_tensor.PARALLEL_MIN_ROWS`` nonempty rows (``pdnr``, ``pqnr``)
    or ``sparse_tensor.PARALLEL_MIN_WORK`` element-updates (``mu``), and
    the models do not depend on the split.  A ``pdnr`` or ``pqnr`` fit
    forks its range children once, on its first split, and every later
    mode solve of the fit reuses them; each ``mu`` mode solve that splits
    forks its own.  ``workers`` remains only because the benchmark in
    ``perfbench/`` still passes it.  Building a ``pdnr``
    config raises ConfigError when a row's ``rank * rank`` damped Hessian
    would not fit in int64 or physical memory, a check that needs no
    tensor, so it comes before any input is read.  It also loads LAPACK's
    Cholesky, which only the damped Newton direction uses, so that one-time
    cost (about 15 ms and 4 MB: ``scipy`` and its
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
            check_size("rank * rank", self.rank * self.rank)
            lapack_cholesky()

    def check_sizes(self, tensor: SparseCountTensor) -> None:
        """Raise ConfigError when a fit of ``tensor`` at this rank needs
        arrays beyond int64 or physical memory: the ``rank * sum(dims)``
        model entries, or ``nnz * rank`` Khatri-Rao rows, the most one
        gather can take, as a row longer than a block is gathered whole.
        A ``pdnr`` config checks its ``rank * rank`` Hessian when built."""
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


def solve_mode(tensor: SparseCountTensor, model: KruskalModel, mode: int,
               method: str = "pdnr", tau: float = ROW_TAU, deadline=None):
    """Solve the block subproblem of one mode and rescale.

    Rows of the unfolded tensor without nonzeros are set to zero directly
    (their optimum, since the objective restricted to them is sum(b)).
    Afterwards column sums move into the weights, so the returned model is
    normalized.  The ``pdnr`` and ``pqnr`` row solves stop at the KKT
    tolerance ``tau`` or after ``row_solver.K_MAX`` iterations; they run
    in row ranges, one per allowed CPU (see
    :func:`poissoncp.sparse_tensor.map_row_ranges`), and results do not
    depend on the split.  The ranges other than the first go to the
    children of the :class:`~poissoncp.sparse_tensor.RowRangePool` open on
    ``tensor``, as in :func:`fit`, or else to children forked for this
    call.  A ``time.perf_counter`` ``deadline`` is checked between the
    ``pdnr`` and ``pqnr`` row solves; a ``mu`` mode solve ignores it and
    runs all its updates.  Returns (model, ModeSweepReport).  Raises
    ValueError for a ``method`` outside :data:`METHODS` or a ``tau`` that
    is not a positive finite number, and ShapeMismatchError when the
    model's dims are not the tensor's.
    """
    _check_method(method)
    tau = check_number("tau", tau, positive=True)
    model = _prepared(model, tensor)
    layout = mode_row_positions(tensor, mode)
    mode0 = mode - 1
    report = ModeSweepReport()
    if method == "mu":
        b_matrix, objectives = mu_solve_mode(tensor, model, mode)
        report.rows_solved = len(layout)
        report.inner_iterations = len(objectives) - 1
    else:
        b_matrix = np.zeros_like(model.factors[mode0])
        solve_row = solve_row_pdnr if method == "pdnr" else solve_row_pqnr
        solved = map_row_ranges(
            tensor, mode, b_matrix, _solve_range,
            (model, mode0, solve_row, tau, deadline),
            calls=(solve_row, RowProblem, _pi_product,
                   row_solver.partition_variables,
                   row_solver.armijo_projected_search,
                   row_solver.damped_newton_direction,
                   row_solver.multiplicative_step,
                   row_solver.LbfgsStore.direction))
        reports = [r for part_reports in solved for r in part_reports]
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


def _solve_range(part, model: KruskalModel, mode0: int, solve_row,
                 tau: float, deadline):
    """The rows of one range of mode ``mode0 + 1`` after their
    ``solve_row`` solves, in ``part.rows`` order, and one RowSolveReport
    per solved row; rows past the ``deadline`` keep their start."""
    gather = functools.partial(_pi_product, model.factors, mode0)
    b = model.factors[mode0][part.rows] * model.weights
    rows = (row for block in part.blocks(model.rank, gather)
            for row in block_rows(*block))
    reports = []
    for k, (_, x, pi) in enumerate(rows):
        if deadline is not None and time.perf_counter() > deadline:
            break
        b[k], report = solve_row(RowProblem(b[k], x, pi), tau)
        reports.append(report)
    return b, reports


def fit(tensor: SparseCountTensor, config: FitConfig,
        init: Optional[KruskalModel] = None) -> FitResult:
    """Alternate mode solves until every swept mode meets the KKT tolerance.

    Stops at convergence, at ``outer_max`` sweeps, or once the time limit is
    exceeded: a ``pdnr`` or ``pqnr`` fit checks it between row solves, a
    ``mu`` fit, whose mode solves run all their updates, between mode
    solves.  The objective recorded in the trace is nonincreasing across
    sweeps for every method.  Every row solve stops at the fit's ``tau``.
    Raises ConfigError, a ValueError, when :meth:`FitConfig.check_sizes`
    rejects the tensor at the configured rank, and ValueError when the
    starting model's total mass is not below ``kruskal.MASS_MAX``.
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

    start = time.perf_counter()
    deadline = None if config.time_limit is None else start + config.time_limit
    trace = FitTrace()
    converged = False
    # A mu fit opens no pool: each mu mode solve that splits forks its
    # children anew.  On a 2-CPU Xeon, cli-large mu fits on a fit-long
    # pool took 0.40-0.46 s raw against 0.45-0.47 s, but the benchmark's
    # normalised fit_s.mu rose from 0.17-0.25 s to 0.35-0.37 s, as the
    # stream kernel it samples beside the idle child ran faster (7.0-7.3
    # ms to 4.7-4.9 ms; ROADMAP item 14).  Split acceptance-fit mu mode
    # solves were slower: 0.30 s to 0.45 s raw per fit.
    pool = RowRangePool(tensor) if config.method != "mu" else nullcontext()
    with pool:
        for outer in range(1, config.outer_max + 1):
            ls_failures = 0
            fallbacks = 0
            for n in modes:
                model, sweep = solve_mode(tensor, model, n,
                                          method=config.method,
                                          tau=config.tau, deadline=deadline)
                ls_failures += sweep.line_search_failures
                fallbacks += sweep.fallback_steps
                if deadline is not None and time.perf_counter() > deadline:
                    break
            mode_kkt = tuple(mode_kkt_violation(tensor, model, n)
                             for n in modes)
            trace.records.append(OuterRecord(
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
