"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's production code paths:
dense reconstruction uses einsum over the full cell grid, derivatives come
from finite differences, row optima from a first-order projected-gradient
loop, and scores from exhaustive permutation search.  The reference
implementations (``per_row_*``, ``argsort_*``, ``one_shot_*``,
``Reference*``) are the plain forms of optimized code paths, kept to show
that each optimization leaves results bitwise unchanged.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from poissoncp.baselines import POSITIVITY_CLAMP, MuSolveResult
from poissoncp.kruskal import KruskalModel, _pi_product, normalize
from poissoncp.row_solver import (
    CURVATURE_SKIP_REL,
    LbfgsStore,
    RowProblem,
    f_row,
    grad_row,
    kkt_violation_row,
    solve_row_pdnr,
    solve_row_pqnr,
)
from poissoncp.sparse_tensor import ModeLayout, lexsort_runs

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


def row_groups(tensor, mode: int):
    """(row0, positions) per nonempty mode row, from one stable argsort."""
    col = tensor.subs0[:, mode - 1]
    order = np.argsort(col, kind="stable")
    chunks = np.split(order, np.flatnonzero(np.diff(col[order])) + 1)
    return [(int(col[c[0]]), c) for c in chunks if c.size]


def argsort_mode_row_positions(tensor, mode: int) -> ModeLayout:
    """Reference layout: a stable argsort of the mode column, and the
    positions where the sorted rows change."""
    col = tensor.subs0[:, mode - 1]
    order = np.argsort(col, kind="stable")
    sorted_rows = col[order]
    new = np.ones(sorted_rows.shape[0], dtype=bool)
    new[1:] = sorted_rows[1:] != sorted_rows[:-1]
    first = np.flatnonzero(new)
    starts = np.append(first, sorted_rows.shape[0])
    return ModeLayout(order, sorted_rows[first], starts)


def lexsort_mode_row_positions(tensor, mode: int) -> ModeLayout:
    """Reference layout: the lexicographic sort of the mode column and the
    runs of equal rows in it."""
    col = tensor.subs0[:, mode - 1]
    order, first = lexsort_runs(col[:, None])
    return ModeLayout(order, col[order[first]], np.append(first, len(col)))


def per_row_mode_kkt_violation(tensor, model: KruskalModel, mode: int) -> float:
    """Reference mode KKT check: one Khatri-Rao gather per row and a running
    maximum, empty rows handled after the loop."""
    if not model.normalized:
        model = normalize(model)
    mode0 = mode - 1
    b_matrix = model.factors[mode0] * model.weights
    worst = 0.0
    has_data = np.zeros(b_matrix.shape[0], dtype=bool)
    for row0, pos in row_groups(tensor, mode):
        has_data[row0] = True
        b = b_matrix[row0]
        pi = _pi_product(model.factors, mode0, tensor.subs0[pos])
        m = pi @ b
        if (m <= 0.0).any():
            return float("inf")
        g = 1.0 - (tensor.vals[pos] / m) @ pi
        worst = max(worst, float(np.abs(np.minimum(b, g)).max()))
    empty = b_matrix[~has_data]
    if empty.size:
        worst = max(worst, float(np.minimum(empty, 1.0).max()))
    return worst


def argsort_mu_solve_mode(tensor, model: KruskalModel, mode: int,
                          inner_iterations: int) -> MuSolveResult:
    """Reference multiplicative mode solve: a whole-tensor gather permuted
    by a fresh stable argsort of the mode column."""
    if not model.normalized:
        model = normalize(model)
    mode0 = mode - 1
    b = np.maximum(model.factors[mode0] * model.weights, POSITIVITY_CLAMP)
    rows = tensor.subs0[:, mode0]
    has_data = np.zeros(b.shape[0], dtype=bool)
    has_data[rows] = True
    b[~has_data] = 0.0
    pi = _pi_product(model.factors, mode0, tensor.subs0)
    x = tensor.vals.astype(np.float64)
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_rows)) + 1))
    unique_rows = sorted_rows[starts]
    pi_sorted = pi[order]
    x_sorted = x[order]
    objectives = np.empty(inner_iterations + 1)
    for it in range(inner_iterations):
        m = np.einsum("zr,zr->z", b[sorted_rows], pi_sorted)
        objectives[it] = b.sum() - float(x_sorted @ np.log(m))
        phi = np.add.reduceat(pi_sorted * (x_sorted / m)[:, None], starts, axis=0)
        b[unique_rows] *= phi
    m = np.einsum("zr,zr->z", b[sorted_rows], pi_sorted)
    objectives[-1] = b.sum() - float(x_sorted @ np.log(m))
    return MuSolveResult(b, objectives)


def per_row_solve_mode(tensor, model: KruskalModel, mode: int, method: str,
                       solver=None, inner_iterations: int = 10):
    """Reference mode solve: pdnr/pqnr gather each row's Khatri-Rao columns
    on their own, mu runs :func:`argsort_mu_solve_mode`; then the model is
    renormalized.  Returns (model, row reports), reports empty for mu."""
    if not model.normalized:
        model = normalize(model)
    mode0 = mode - 1
    reports = []
    if method == "mu":
        b_matrix = argsort_mu_solve_mode(tensor, model, mode,
                                         inner_iterations).b_matrix
    else:
        b_matrix = np.zeros_like(model.factors[mode0])
        b_start = model.factors[mode0] * model.weights
        for row0, pos in row_groups(tensor, mode):
            pi = _pi_product(model.factors, mode0, tensor.subs0[pos]).T
            problem = RowProblem(b_start[row0], tensor.vals[pos], pi)
            if method == "pdnr":
                b_star, report = solve_row_pdnr(problem, solver)
            else:
                b_star, report = solve_row_pqnr(problem, solver)
            b_matrix[row0] = b_star
            reports.append(report)
    factors = list(model.factors)
    factors[mode0] = b_matrix
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return normalize(KruskalModel(np.ones(model.rank), tuple(factors))), reports


def one_shot_model_entries(model: KruskalModel, subs0) -> np.ndarray:
    """Reference model values: one (nnz, R) gather and one product."""
    vecs = np.ones((subs0.shape[0], model.rank))
    for k, f in enumerate(model.factors):
        vecs *= f[subs0[:, k], :]
    return vecs @ model.weights


class ReferenceLbfgsStore(LbfgsStore):
    """The L-BFGS pair update and two-loop recursion with an alphas array
    and a masked copy of g on every call."""

    def update(self, s, y) -> bool:
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        sy = float(s @ y)
        if sy <= CURVATURE_SKIP_REL * (math.sqrt(s.dot(s)) * math.sqrt(y.dot(y))):
            self.skipped += 1
            return False
        self._s.append(s.copy())
        self._y.append(y.copy())
        self._rho.append(1.0 / sy)
        if len(self._s) > self.memory:
            del self._s[0], self._y[0], self._rho[0]
        self.gamma = sy / float(y @ y)
        return True

    def direction(self, g):
        q = np.asarray(g, dtype=np.float64).copy()
        n = len(self._s)
        if n == 0:
            return q
        alphas = np.empty(n)
        for i in range(n - 1, -1, -1):
            alphas[i] = self._rho[i] * float(self._s[i] @ q)
            q -= alphas[i] * self._y[i]
        r = self.gamma * q
        for i in range(n):
            beta = self._rho[i] * float(self._y[i] @ r)
            r += (alphas[i] - beta) * self._s[i]
        return r


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
