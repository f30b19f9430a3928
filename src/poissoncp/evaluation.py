"""Model evaluation: factor recovery scores, sparsity counts, KKT reports."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .kruskal import KruskalModel, _pi_product, _prepared, _unit_columns
from .row_solver import (_block_model, _block_pi_x_over_m, _pi_x_over_m,
                         kkt_violation_row)
from .sparse_tensor import SparseCountTensor, block_rows, mode_row_positions

__all__ = [
    "ScoreReport",
    "ZeroCountReport",
    "score_greedy",
    "congruence_matrix",
    "exact_zero_count",
    "thresholded_zero_count",
    "mode_kkt_violation",
    "full_kkt_violation",
]

DEFAULT_ZERO_THRESHOLDS = (1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class ScoreReport:
    """Greedy congruence score between two models.

    ``score`` is the mean over matched components of the product across
    modes of cosines between factor columns; ``permutation[r]`` gives the
    component of the second model matched to component r of the first.
    """

    score: float
    permutation: tuple[int, ...]
    per_component: tuple[float, ...]


@dataclass(frozen=True)
class ZeroCountReport:
    """Counts of factor entries at or below a threshold (0.0 means exact)."""

    per_factor: tuple[int, ...]
    total: int


def congruence_matrix(model_a: KruskalModel, model_b: KruskalModel) -> np.ndarray:
    """C[r, s] = prod_n cos(a_r^(n), b_s^(n)) over l2-normalized columns.

    Weights are ignored: the measure compares column directions only.  Dead
    (zero) components contribute zero cosines.
    """
    if model_a.shape.dims != model_b.shape.dims or model_a.rank != model_b.rank:
        raise ShapeMismatchError("models must share shape and component count")
    fa = _unit_columns(model_a.factors)
    fb = _unit_columns(model_b.factors)
    c = np.ones((model_a.rank, model_a.rank))
    for a, b in zip(fa, fb):
        c *= a.T @ b
    return c


def score_greedy(model_a: KruskalModel, model_b: KruskalModel) -> ScoreReport:
    """Greedy component matching on the congruence matrix.

    Repeatedly picks the largest remaining entry (ties broken by lowest row
    then column index), removes its row and column, and averages the picked
    products.  For well-separated components this equals the best score over
    all permutations; in general it is a lower bound.
    """
    c = congruence_matrix(model_a, model_b)
    r = c.shape[0]
    permutation = [0] * r
    picked = [0.0] * r
    work = c.copy()
    for _ in range(r):
        # argmax returns the first (lowest) flat index on ties, and every
        # matched row and column holds -inf, below any cosine.
        row, col = divmod(int(np.argmax(work)), r)
        permutation[row] = col
        picked[row] = float(c[row, col])
        work[row, :] = -np.inf
        work[:, col] = -np.inf
    return ScoreReport(
        score=float(np.mean(picked)),
        permutation=tuple(permutation),
        per_component=tuple(picked),
    )


def exact_zero_count(model: KruskalModel) -> ZeroCountReport:
    """Entries of each factor literally equal to zero; no threshold.  As
    factors are nonnegative, these are the entries at or below 0.0."""
    return thresholded_zero_count(model, 0.0)


def thresholded_zero_count(model: KruskalModel, threshold: float) -> ZeroCountReport:
    """Entries of each factor at or below ``threshold``, for comparisons
    with methods that only make entries small."""
    per = tuple(int(np.count_nonzero(f <= threshold)) for f in model.factors)
    return ZeroCountReport(per_factor=per, total=sum(per))


# Blocks of at least this many rows take the blocked screen of
# mode_kkt_violation; smaller ones walk their rows one by one.  On a 2-CPU
# Xeon, after one mu sweep (medians of 15-21 alternating calls), the
# three-mode check of short-rows, about 80 rows of 15-26 nonzeros a block
# at R10, took 10-15 ms with any threshold from 1 to 32 rows and 35 ms
# with none.  cli-large's blocks hold a median of 1-2 long rows: screening
# every block took 160 ms, from 4 rows on 76-85 ms, and with none 76 ms.
SCREEN_MIN_ROWS = 8

# The screen's rounding bound.  With u = eps / 2, a floating-point sum of
# n nonnegative terms in any order (sequential, pairwise, blocked, with
# fused multiply-adds) lies within gamma_n = n u / (1 - n u) of the exact
# sum, relatively.  A row's model value m_j = sum_r b_r pi_rj sums R
# products; x_j / m_j adds one rounding, each pi_rj x_j / m_j one more, and
# Phi_r sums J of those, so a computed Phi_r lies within gamma_(J+R+1) Phi_r
# of the exact one, and g_r = 1 - Phi_r within gamma_(J+R+1) Phi_r +
# u (1 + Phi_r).  min, abs and max are exact and move their result by no
# more than their arguments move, so the per-row and the blocked violation
# of a row both lie within about (J + R + 2) u (max_r Phi_r + 1) of the
# exact value, and within twice that of each other.  SCREEN_BOUND_FACTOR
# doubles that again, for the gamma denominators and for the computed
# Phi in place of the exact one.
SCREEN_BOUND_FACTOR = 4.0 * (np.finfo(np.float64).eps / 2)

# The analysis assumes no overflow and no underflow.  A row whose blocked
# x / m or Phi exceeds this cap takes the exact walk, and with it every row
# with a zero model value, a NaN or an infinity.  As every count is at
# least 1, a screened row's model values are at least 1 / cap, so a product
# that underflows moves them by a relative 3e-24 at most, and x / m, Phi
# and g stay finite in the per-row form too.  A model value that overflows
# leaves x / m below 1e-289 in either form (the model is normalized, so
# pi <= 1), and an underflowing pi_rj x_j / m_j is off by 3e-324: both far
# inside the bound, which is at least 4 u.
SCREEN_CAP = 1e300


def _screen_block(b_blk, counts, x, pi):
    """Blocked gradient ``g`` of every row of one block, and the bounds
    ``low`` and ``high`` on each row's KKT violation as the per-row
    computation gives it; the bounds hold where ``safe`` is set.  The other
    rows may hold NaN or infinities."""
    starts = np.cumsum(counts) - counts
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_over_m = x / _block_model(b_blk, counts, pi)
        phi = _block_pi_x_over_m(pi, x_over_m, starts)
        g = 1.0 - phi
        violation = np.abs(np.minimum(b_blk, g)).max(axis=1)
        phi_max = phi.max(axis=1)
        bound = SCREEN_BOUND_FACTOR * (counts + (pi.shape[1] + 2)) * (phi_max + 1.0)
        low, high = violation - bound, violation + bound
    safe = phi_max <= SCREEN_CAP
    if not x_over_m.max() <= SCREEN_CAP:
        safe &= np.maximum.reduceat(x_over_m, starts) <= SCREEN_CAP
    return g, low, high, safe


def mode_kkt_violation(tensor: SparseCountTensor, model: KruskalModel,
                       mode: int) -> float:
    """Largest row-subproblem KKT violation of one mode at the current model.

    Pure recomputation: rebuilds B and the Khatri-Rao rows from the model,
    one gather per block of the mode layout, in the calling process.
    Blocks of at least ``SCREEN_MIN_ROWS`` rows get every row's gradient
    and violation in a few whole-block passes, each with a bound on its
    rounding; only rows that may hold the maximum, and rows beyond the
    bound's analysis, are recomputed row by row.  Smaller blocks walk all
    their rows.  So the result is the per-row computation's, bit for bit:
    the largest violation, +inf when a model value is zero at a positive
    count, NaN when a row's gradient is.  Raises ShapeMismatchError when
    the model's dims are not the tensor's.
    """
    model = _prepared(model, tensor)
    layout = mode_row_positions(tensor, mode)
    mode0 = mode - 1
    b_matrix = model.factors[mode0] * model.weights
    # Rows without data have gradient 1 everywhere; each nonempty row's
    # gradient is written over it.  A screened row keeps its blocked
    # gradient only when its violation, within its bound, lies below
    # ``floor``, a lower bound on the maximum, so it cannot be the maximum.
    grad = np.ones_like(b_matrix)
    gather = functools.partial(_pi_product, model.factors, mode0)
    floor = 0.0
    for rows, counts, x_blk, pi_blk in layout.blocks(model.rank, gather):
        exact = None
        if len(rows) >= SCREEN_MIN_ROWS:
            g, low, high, safe = _screen_block(b_matrix[rows], counts, x_blk,
                                               pi_blk)
            grad[rows] = g
            floor = float(np.max(low, where=safe, initial=floor))
            exact = ~safe | (high >= floor)
        for row0, x, pi in block_rows(rows, counts, x_blk, pi_blk, exact):
            b = b_matrix[row0]
            m = b.dot(pi)
            if (m <= 0.0).any():
                return float("inf")
            grad[row0] = 1.0 - _pi_x_over_m(pi, x, m)
    return kkt_violation_row(b_matrix.ravel(), grad.ravel())


def full_kkt_violation(tensor: SparseCountTensor, model: KruskalModel):
    """Per-mode and global maximum row KKT violations over all modes.

    Each mode is checked as :func:`mode_kkt_violation` checks it, block by
    block in the calling process, with the same result as a walk over
    every row.  Returns (per_mode, global_max) where per_mode is one float
    per mode.
    """
    per_mode = tuple(
        mode_kkt_violation(tensor, model, n) for n in range(1, model.ndim + 1)
    )
    return per_mode, max(per_mode)
