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

from .kruskal import KruskalModel, _pi_product, normalize
from .sparse_tensor import (SparseCountTensor, map_row_ranges,
                            mode_row_positions)

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
    Rows are independent, so each block of ``layout.blocks`` runs all its
    updates while its Khatri-Rao rows stay in cache, and each objective is
    summed block by block.  A mode with enough work is split into row
    ranges that forked children solve
    (:func:`poissoncp.sparse_tensor.map_row_ranges`); every row's
    arithmetic is the same in any range, so only the objectives' rounding
    depends on the split.  ``layout`` may carry the mode's precomputed
    :func:`poissoncp.sparse_tensor.mode_row_positions`.
    """
    if inner_iterations < 1:
        raise ValueError("inner_iterations must be at least 1")
    if not model.normalized:
        model = normalize(model)
    mode0 = mode - 1
    if layout is None:
        layout = mode_row_positions(tensor, mode)
    factor = model.factors[mode0]
    b = np.zeros_like(factor)
    gather = functools.partial(_pi_product, model.factors, mode0)

    def solve_range(part):
        objectives = np.zeros(inner_iterations + 1)
        for rows, counts, x, pi in part.blocks(tensor, model.rank, gather):
            b_blk = np.maximum(factor[rows] * model.weights, POSITIVITY_CLAMP)
            starts = np.cumsum(counts) - counts
            for it in range(inner_iterations + 1):
                m = np.einsum("zr,zr->z", np.repeat(b_blk, counts, axis=0), pi)
                objectives[it] += b_blk.sum() - float(x @ np.log(m))
                if it < inner_iterations:
                    b_blk *= np.add.reduceat(pi * (x / m)[:, None], starts,
                                             axis=0)
            b[rows] = b_blk
        return b[part.rows], objectives

    solved = map_row_ranges(
        layout, solve_range, calls=(_pi_product,),
        work=layout.nnz * model.rank * (inner_iterations + 1))
    b[layout.rows] = np.concatenate([rows for rows, _ in solved])
    return MuSolveResult(b, sum(objectives for _, objectives in solved))
