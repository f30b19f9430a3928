"""Multiplicative-update baseline for one mode's block subproblem.

The update is the classic scaled steepest-descent step for the KL
objective.  Because factor columns are normalized before each mode solve,
the usual denominator (the row sums of the Khatri-Rao matrix) is
identically one, so each inner iteration reduces to B <- B * Phi with

    Phi[i, r] = sum_{j in nz(i)} x_ij * pi[r, j] / (B[i, :] @ pi[:, j]),

computed over nonzero unfolding columns only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kruskal import KruskalModel, _pi_product, normalize
from .sparse_tensor import SparseCountTensor, mode_row_positions

__all__ = ["MuSolveResult", "mu_solve_mode"]

POSITIVITY_CLAMP = 1e-16


class MuSolveResult(NamedTuple):
    b_matrix: np.ndarray  # updated B for the mode, rows without data zeroed
    objectives: np.ndarray  # mode objective before each inner iteration and after the last


def mu_solve_mode(tensor: SparseCountTensor, model: KruskalModel, mode: int,
                  inner_iterations: int = 10, layout=None) -> MuSolveResult:
    """Run ``inner_iterations`` multiplicative updates on mode ``mode`` of
    a normalized model.

    Entries of B are clamped up to 1e-16 before the first inner iteration so
    that no variable starts in the absorbing state at zero.  Rows of the
    unfolded tensor without any nonzero have objective sum(b) and are set to
    zero, their exact optimum.  The recorded objectives are nonincreasing.
    ``layout`` may carry the mode's precomputed
    :func:`poissoncp.sparse_tensor.mode_row_positions`.
    """
    if inner_iterations < 1:
        raise ValueError("inner_iterations must be at least 1")
    if not model.normalized:
        model = normalize(model)
    mode0 = mode - 1
    if layout is None:
        layout = mode_row_positions(tensor, mode)
    b = np.zeros_like(model.factors[mode0])
    unique_rows = layout.rows
    b[unique_rows] = np.maximum(
        model.factors[mode0][unique_rows] * model.weights, POSITIVITY_CLAMP
    )
    if tensor.nnz == 0:
        return MuSolveResult(b, np.zeros(inner_iterations + 1))

    # Nonzeros in layout order, so each row's entries are contiguous.
    order = layout.order
    starts = layout.starts[:-1]
    sorted_rows = tensor.subs0[order, mode0]
    pi_sorted = _pi_product(model.factors, mode0, tensor.subs0[order])
    x_sorted = tensor.vals[order].astype(np.float64)

    objectives = np.empty(inner_iterations + 1)
    for it in range(inner_iterations):
        m = np.einsum("zr,zr->z", b[sorted_rows], pi_sorted)
        objectives[it] = b.sum() - float(x_sorted @ np.log(m))
        ratio = x_sorted / m
        phi = np.add.reduceat(pi_sorted * ratio[:, None], starts, axis=0)
        b[unique_rows] *= phi
    m = np.einsum("zr,zr->z", b[sorted_rows], pi_sorted)
    objectives[-1] = b.sum() - float(x_sorted @ np.log(m))
    return MuSolveResult(b, objectives)
