"""Model evaluation: factor recovery scores, sparsity counts, KKT reports."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .kruskal import KruskalModel, _pi_product, normalize
from .row_solver import _pi_x_over_m
from .sparse_tensor import SparseCountTensor, map_row_ranges, mode_row_positions

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


def _unit_columns(factors):
    """l2-normalize factor columns; identically zero columns stay zero."""
    out = []
    for f in factors:
        norms = np.linalg.norm(f, axis=0)
        out.append(f / np.where(norms == 0.0, 1.0, norms))
    return out


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
    remaining_rows = list(range(r))
    remaining_cols = list(range(r))
    permutation = [0] * r
    picked = [0.0] * r
    work = c.copy()
    for _ in range(r):
        flat = np.argmax(work)  # argmax returns the first (lowest) flat index on ties
        i, j = divmod(int(flat), work.shape[1])
        row, col = remaining_rows[i], remaining_cols[j]
        permutation[row] = col
        picked[row] = float(c[row, col])
        remaining_rows.pop(i)
        remaining_cols.pop(j)
        work = np.delete(np.delete(work, i, axis=0), j, axis=1)
    return ScoreReport(
        score=float(np.mean(picked)),
        permutation=tuple(permutation),
        per_component=tuple(picked),
    )


def exact_zero_count(model: KruskalModel) -> ZeroCountReport:
    """Entries of each factor literally equal to zero; no threshold."""
    per = tuple(int(np.count_nonzero(f == 0.0)) for f in model.factors)
    return ZeroCountReport(threshold=0.0, per_factor=per, total=sum(per))


def thresholded_zero_count(model: KruskalModel, threshold: float) -> ZeroCountReport:
    """Entries of each factor at or below ``threshold``, for comparisons
    with methods that only make entries small."""
    per = tuple(int(np.count_nonzero(f <= threshold)) for f in model.factors)
    return ZeroCountReport(threshold=float(threshold), per_factor=per, total=sum(per))


def mode_kkt_violation(tensor: SparseCountTensor, model: KruskalModel,
                       mode: int, layout=None) -> float:
    """Largest row-subproblem KKT violation of one mode at the current model.

    Pure recomputation: rebuilds B and the Khatri-Rao rows from the model,
    walking the mode layout's row views, one row range per allowed CPU
    (:func:`poissoncp.sparse_tensor.map_row_ranges`).  A maximum is exact,
    so the result does not depend on the split.  ``layout`` may carry the
    mode's precomputed :func:`poissoncp.sparse_tensor.mode_row_positions`.
    """
    if not model.normalized:
        model = normalize(model)
    mode0 = mode - 1
    b_matrix = model.factors[mode0] * model.weights
    if layout is None:
        layout = mode_row_positions(tensor, mode)
    # Rows without data have gradient 1 everywhere, so min(b, 1) is their
    # residual; each row range overwrites its rows' and returns their worst.
    residual = np.minimum(b_matrix, 1.0)
    gather = functools.partial(_pi_product, model.factors, mode0)

    def range_worst(part):
        for row0, x, pi in part.row_views(tensor, model.rank, gather):
            b = b_matrix[row0]
            m = b @ pi
            if (m <= 0.0).any():
                return float("inf")
            residual[row0] = np.minimum(b, 1.0 - _pi_x_over_m(pi, x, m))
        return np.abs(residual[part.rows]).max(initial=0.0)

    worst = map_row_ranges(layout, range_worst,
                           calls=(_pi_product, _pi_x_over_m))
    empty = np.delete(residual, layout.rows, axis=0)
    return float(np.max([np.abs(empty).max(initial=0.0), *worst]))


def full_kkt_violation(tensor: SparseCountTensor, model: KruskalModel):
    """Per-mode and global maximum row KKT violations over all modes.

    Returns (per_mode, global_max) where per_mode is one float per mode.
    """
    per_mode = tuple(
        mode_kkt_violation(tensor, model, n) for n in range(1, model.ndim + 1)
    )
    return per_mode, max(per_mode)
