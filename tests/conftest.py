"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's production code paths:
dense reconstruction uses einsum over the full cell grid, derivatives come
from finite differences, row optima from a first-order projected-gradient
loop, and scores from exhaustive permutation search.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from poissoncp.kruskal import KruskalModel
from poissoncp.row_solver import RowProblem, f_row, grad_row, kkt_violation_row

LETTERS = "abcdefgh"


def dense_model_array(model: KruskalModel) -> np.ndarray:
    """Full dense tensor represented by a model, via einsum."""
    n = model.ndim
    subs = [LETTERS[k] + "r" for k in range(n)]
    expr = ",".join(subs) + ",r->" + LETTERS[:n]
    return np.einsum(expr, *model.factors, model.weights)


def dense_tensor_array(tensor) -> np.ndarray:
    """Dense array of a sparse count tensor."""
    out = np.zeros(tensor.shape.dims)
    for sub, val in zip(tensor.subs0, tensor.vals):
        out[tuple(sub)] = val
    return out


def dense_kl_objective(model: KruskalModel, tensor) -> float:
    """Brute-force KL objective: loop over every cell of the dense grid."""
    m = dense_model_array(model)
    x = dense_tensor_array(tensor)
    total = float(m.sum())
    for idx in np.ndindex(*m.shape):
        if x[idx] > 0:
            if m[idx] <= 0:
                return float("inf")
            total -= x[idx] * np.log(m[idx])
    return total


def khatri_rao_columns(factors) -> np.ndarray:
    """All Khatri-Rao rows for factors in increasing mode order.

    Row j matches unfolding column j: the first listed factor's index
    varies fastest.  Returns (prod I_k, R).
    """
    cols = np.ones((1, factors[0].shape[1]))
    for f in factors:
        cols = np.einsum("jr,ir->ijr", cols, f).reshape(-1, f.shape[1])
    return cols


def central_diff(fun, x, h=1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return g


def central_diff_jacobian(fun, x, h=1e-6) -> np.ndarray:
    """Central finite differences of a vector function, one column per
    coordinate."""
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        cols.append((fun(x + step) - fun(x - step)) / (2 * h))
    return np.stack(cols, axis=1)


def projected_gradient_solve(problem: RowProblem, tol=1e-12,
                             max_iter=200_000) -> np.ndarray:
    """First-order oracle: projected gradient with backtracking.

    Shares nothing with the Newton machinery; only f_row/grad_row and the
    nonnegative projection.
    """
    b = problem.b.copy()
    f = f_row(problem, b)
    for _ in range(max_iter):
        g = grad_row(problem, b)
        if kkt_violation_row(b, g) <= tol:
            break
        step = 1.0
        accepted = False
        for _ in range(80):
            b_try = np.maximum(b - step * g, 0.0)
            predicted = float(g @ (b_try - b))
            if predicted < 0.0:
                f_try = f_row(problem, b_try)
                if f_try - f <= 1e-4 * predicted:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        b, f = b_try, f_try
    return b


def bfgs_inverse_update(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense BFGS inverse-Hessian update."""
    rho = 1.0 / float(s @ y)
    v = np.eye(s.size) - rho * np.outer(s, y)
    return v @ h @ v.T + rho * np.outer(s, s)


def exhaustive_score(c: np.ndarray) -> float:
    """Best mean of matched congruence products over all permutations."""
    r = c.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(r)):
        best = max(best, float(np.mean([c[i, perm[i]] for i in range(r)])))
    return best


def per_line_write_coo(tensor, path) -> None:
    """Reference COO writer: one str.join per nonzero line."""
    with open(path, "w") as fh:
        dims = " ".join(str(d) for d in tensor.shape.dims)
        fh.write(f"{tensor.ndim} {dims}\n")
        for sub, val in zip(tensor.subs0 + 1, tensor.vals):
            fh.write(" ".join(str(int(s)) for s in sub) + f" {int(val)}\n")


def unique_sample_cells(model: KruskalModel, samples: int, seed):
    """Reference sampler: the documented draw order of ``sample_tensor``
    followed by ``np.unique(axis=0)``.  Returns 0-based (cells, counts)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cw = np.cumsum(model.weights)
    cw /= cw[-1]
    comp = np.minimum(np.searchsorted(cw, rng.random(samples), side="right"),
                      model.rank - 1)
    subs0 = np.empty((samples, model.ndim), dtype=np.int64)
    for k, f in enumerate(model.factors):
        cum = np.cumsum(f, axis=0)
        cum /= cum[-1:, :]
        u = rng.random(samples)
        for s in range(samples):
            i = np.searchsorted(cum[:, comp[s]], u[s], side="right")
            subs0[s, k] = min(i, f.shape[0] - 1)
    return np.unique(subs0, axis=0, return_counts=True)


def random_row_problem(rng, r_max=10, j_max=20, strictly_convex=False,
                       interior=True) -> RowProblem:
    """Seeded random row problem with strictly positive pi entries.

    With ``strictly_convex`` the column count is at least the variable
    count, which makes the Hessian positive definite with probability one.
    """
    r = int(rng.integers(1, r_max + 1))
    j_lo = r if strictly_convex else 1
    j = int(rng.integers(j_lo, max(j_max, j_lo) + 1))
    pi = rng.uniform(0.05, 1.0, size=(r, j))
    x = rng.integers(1, 10, size=j).astype(float)
    if interior:
        b = rng.uniform(0.5, 2.0, size=r)
    else:
        b = rng.uniform(0.0, 2.0, size=r)
    return RowProblem(b, x, pi)


def random_model(rng, dims, rank) -> KruskalModel:
    factors = tuple(rng.uniform(0.1, 1.0, size=(d, rank)) for d in dims)
    return KruskalModel(rng.uniform(0.5, 1.5, size=rank), factors)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
