"""Model evaluation: factor recovery scores, sparsity counts, KKT reports."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .kruskal import KruskalModel, _pi_product, _prepared, _unit_columns
from .row_solver import _pi_x_over_m, kkt_violation_row
from .sparse_tensor import SparseCountTensor, mode_row_positions

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

    threshold: float
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
    return ZeroCountReport(threshold=float(threshold), per_factor=per, total=sum(per))


def mode_kkt_violation(tensor: SparseCountTensor, model: KruskalModel,
                       mode: int) -> float:
    """Largest row-subproblem KKT violation of one mode at the current model.

    Pure recomputation: rebuilds B and the Khatri-Rao rows from the model,
    walking the mode layout's row views in the calling process; a few
    microseconds a row.  Raises ShapeMismatchError when the model's dims
    are not the tensor's.
    """
    model = _prepared(model, tensor)
    layout = mode_row_positions(tensor, mode)
    mode0 = mode - 1
    b_matrix = model.factors[mode0] * model.weights
    # Rows without data have gradient 1 everywhere; each nonempty row's
    # gradient is written over it.
    grad = np.ones_like(b_matrix)
    gather = functools.partial(_pi_product, model.factors, mode0)
    for row0, x, pi in layout.row_views(model.rank, gather):
        b = b_matrix[row0]
        m = b.dot(pi)
        if (m <= 0.0).any():
            return float("inf")
        grad[row0] = 1.0 - _pi_x_over_m(pi, x, m)
    return kkt_violation_row(b_matrix.ravel(), grad.ravel())


def full_kkt_violation(tensor: SparseCountTensor, model: KruskalModel):
    """Per-mode and global maximum row KKT violations over all modes.

    Returns (per_mode, global_max) where per_mode is one float per mode.
    """
    per_mode = tuple(
        mode_kkt_violation(tensor, model, n) for n in range(1, model.ndim + 1)
    )
    return per_mode, max(per_mode)
