"""Sparse Poisson CP tensor factorization under the KL divergence objective.

The package factors large sparse count tensors into nonnegative CP models
by alternating over modes and solving each mode's independent row
subproblems with second-order methods (projected damped Newton or projected
quasi-Newton), with a multiplicative-update baseline, a synthetic Poisson
data generator, and factor-recovery evaluation.
"""

__version__ = "0.1.0"

from .baselines import mu_solve_mode
from .driver import (
    FitConfig,
    FitResult,
    FitTrace,
    fit,
    init_model,
    solve_mode,
    write_trace,
)
from .evaluation import (
    ScoreReport,
    exact_zero_count,
    full_kkt_violation,
    score_greedy,
    thresholded_zero_count,
)
from .kruskal import (
    KruskalModel,
    kl_objective,
    load_model,
    normalize,
    save_model,
)
from .row_solver import (
    LbfgsStore,
    RowProblem,
    RowSolveReport,
    f_row,
    grad_row,
    hess_row,
    kkt_violation_row,
    solve_row_pdnr,
    solve_row_pqnr,
)
from .sparse_tensor import (
    Shape,
    SparseCountTensor,
    mode_column_index,
    read_coo,
    write_coo,
)
from .synth import (
    GenConfig,
    collinearity_stats,
    generate_dataset,
    generate_model,
    sample_tensor,
)

__all__ = [
    "__version__",
    "Shape",
    "SparseCountTensor",
    "mode_column_index",
    "read_coo",
    "write_coo",
    "KruskalModel",
    "normalize",
    "kl_objective",
    "save_model",
    "load_model",
    "RowProblem",
    "RowSolveReport",
    "LbfgsStore",
    "f_row",
    "grad_row",
    "hess_row",
    "kkt_violation_row",
    "solve_row_pdnr",
    "solve_row_pqnr",
    "mu_solve_mode",
    "FitConfig",
    "FitResult",
    "FitTrace",
    "init_model",
    "solve_mode",
    "fit",
    "write_trace",
    "GenConfig",
    "generate_model",
    "sample_tensor",
    "generate_dataset",
    "collinearity_stats",
    "ScoreReport",
    "score_greedy",
    "exact_zero_count",
    "thresholded_zero_count",
    "full_kkt_violation",
]
