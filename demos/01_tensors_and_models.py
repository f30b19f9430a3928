#!/usr/bin/env python3
"""Sparse count tensors and CP models: the data structures everything
else builds on.

A count tensor stores only its nonzero cells (1-based indices, positive
integer counts).  A CP model represents a dense nonnegative tensor as a
weighted sum of rank-one outer products; normalizing moves all column mass
into the weights without changing the represented tensor.
"""

import numpy as np

from poissoncp import (
    KruskalModel,
    SparseCountTensor,
    kl_objective,
    mode_column_index,
    normalize,
)
from poissoncp.kruskal import model_entries
from poissoncp.sparse_tensor import mode_row_positions

# ---------------------------------------------------------------------------
# A tiny 3-way tensor: counts of events indexed by (source, target, hour).
entries = [
    ((1, 2, 1), 5),
    ((1, 3, 2), 2),
    ((2, 2, 1), 7),
    ((3, 1, 2), 1),
]
tensor = SparseCountTensor.from_entries((3, 3, 2), entries)
print(f"tensor: dims={tensor.shape.dims} nnz={tensor.nnz} "
      f"total={tensor.total_count()} density={tensor.density():.1%}")

# Unfolding along a mode lays the other modes out as columns; each nonzero
# has a well-defined column index per mode.
for mode in (1, 2, 3):
    cols = [mode_column_index(tensor.shape, mode, e) for e, _ in entries]
    print(f"mode-{mode} unfolding columns of the nonzeros: {cols}")

# Row grouping is how the fitting loop sees the data: one group per
# nonempty row of the unfolded tensor, listed by the other modes' indices
# and the counts of its nonzeros.
layout = mode_row_positions(tensor, 1)
for row0, lo, hi in zip(layout.rows, layout.starts[:-1], layout.starts[1:]):
    items = [((int(j) + 1, int(k) + 1), int(v)) for j, k, v in
             zip(*(c[lo:hi] for c in layout.columns), layout.vals[lo:hi])]
    print(f"mode-1 row {row0 + 1}: {items}")

# ---------------------------------------------------------------------------
# A rank-2 model of the same shape.
rng = np.random.default_rng(0)
model = KruskalModel(
    np.array([3.0, 1.0]),
    tuple(rng.uniform(0.1, 1.0, (d, 2)) for d in (3, 3, 2)),
)
nm = normalize(model)
print(f"\nweights before/after normalize: {model.weights} -> "
      f"{np.round(nm.weights, 4)}")
print("factor column sums after normalize:",
      [np.round(f.sum(axis=0), 12).tolist() for f in nm.factors])

# The represented tensor is unchanged by normalization.
idx = (2, 3, 1)
columns = [[i - 1] for i in idx]  # one 0-based index column per mode
print(f"model entry at {idx}: {model_entries(model, columns)[0]:.6f} == "
      f"{model_entries(nm, columns)[0]:.6f}")

# The KL fit of a model to a count tensor; lower is better, and the value
# is finite as long as no positive count sits on a zero model cell.
print(f"KL objective of the random model: {kl_objective(nm, tensor):.4f}")
