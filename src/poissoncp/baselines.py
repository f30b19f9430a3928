"""Multiplicative-update baseline for one mode's block subproblem.

The update is the classic scaled steepest-descent step for the KL
objective.  Because factor columns are normalized before each mode solve,
the usual denominator (the row sums of the Khatri-Rao matrix) is
identically one, so each inner iteration reduces to B <- B * Phi with

    Phi[i, r] = sum_{j in nz(i)} x_ij * pi[r, j] / (B[i, :] @ pi[:, j]),

computed over nonzero unfolding columns only.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .kruskal import KruskalModel, _pi_product, _prepared
from .row_solver import _block_model, _block_pi_x_over_m, _chunked_dot
from .sparse_tensor import (SparseCountTensor, map_row_ranges,
                            mode_row_positions)

__all__ = ["MuSolveResult", "mu_solve_mode"]

POSITIVITY_CLAMP = 1e-16
INNER_ITERATIONS = 10


class MuSolveResult(NamedTuple):
    b_matrix: np.ndarray  # updated B for the mode, rows without data zeroed
    objectives: np.ndarray  # mode objective before each inner iteration and after the last


def mu_solve_mode(tensor: SparseCountTensor, model: KruskalModel,
                  mode: int) -> MuSolveResult:
    """Run ``INNER_ITERATIONS`` multiplicative updates on mode ``mode``.

    Entries of B are clamped up to 1e-16 before the first inner iteration so
    that no variable starts in the absorbing state at zero.  Rows of the
    unfolded tensor without any nonzero have objective sum(b) and are set to
    zero, their exact optimum.  The recorded objectives are nonincreasing.
    Rows are independent, so each block of the mode's layout runs all its
    updates while its Khatri-Rao rows stay in cache, and each objective is
    summed block by block.  A mode with enough work is split into row
    ranges that forked children solve
    (:func:`poissoncp.sparse_tensor.map_row_ranges`); every row's
    arithmetic is the same in any range, so only the objectives' rounding
    depends on the split.  Raises ShapeMismatchError when the model's dims
    are not the tensor's.
    """
    model = _prepared(model, tensor)
    layout = mode_row_positions(tensor, mode)
    mode0 = mode - 1
    factor = model.factors[mode0]
    b = np.zeros_like(factor)
    gather = functools.partial(_pi_product, model.factors, mode0)

    def solve_range(part):
        objectives = np.zeros(INNER_ITERATIONS + 1)
        for rows, counts, x, pi in part.blocks(model.rank, gather):
            b_blk = np.maximum(factor[rows] * model.weights, POSITIVITY_CLAMP)
            starts = np.cumsum(counts) - counts
            for it in range(INNER_ITERATIONS + 1):
                m = _block_model(b_blk, counts, pi)
                objectives[it] += (b_blk.sum()
                                   - float(_chunked_dot(x, np.log(m))))
                if it < INNER_ITERATIONS:
                    b_blk *= _block_pi_x_over_m(pi, x / m, starts)
            b[rows] = b_blk
        return objectives

    objectives = map_row_ranges(
        layout, b, solve_range, calls=(_pi_product,),
        work=layout.nnz * model.rank * (INNER_ITERATIONS + 1))
    return MuSolveResult(b, sum(objectives))
