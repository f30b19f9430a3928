"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's production code paths:
dense reconstruction uses einsum over the full cell grid, derivatives come
from finite differences, row optima from a first-order projected-gradient
loop, and scores from exhaustive permutation search.  The reference
implementations (``coo_*``, ``per_row_*``, ``argsort_*``, ``one_shot_*``,
``shrinking_copy_*``, ``Reference*``, ``reference_*``) are the plain forms
of optimized or restructured code paths, kept to show that each change
leaves results bitwise unchanged.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import poissoncp
from poissoncp.baselines import POSITIVITY_CLAMP, MuSolveResult
import poissoncp.row_solver as row_solver
from poissoncp.errors import FactorizationFailureError
from poissoncp.kruskal import KruskalModel, normalize
from poissoncp.row_solver import (
    CURVATURE_SKIP_REL,
    FACTORIZATION_RETRIES,
    LbfgsStore,
    RowProblem,
    RowSolveReport,
    assemble_direction,
    damped_newton_direction,
    f_row,
    grad_row,
    kkt_violation_row,
    multiplicative_step,
    partition_variables,
    solve_row_pdnr,
    solve_row_pqnr,
    update_damping,
)
from poissoncp.sparse_tensor import ModeLayout

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


def coo_pi_product(factors, mode0, subs0) -> np.ndarray:
    """Reference Khatri-Rao rows: (J, R) rows prod_{k != mode0}
    factors[k][subs0[:, k], :] by fancy indexing the COO subscript rows,
    multiplied in mode order from ones."""
    out = np.ones((subs0.shape[0], factors[0].shape[1]))
    for k, f in enumerate(factors):
        if k != mode0:
            out *= f[subs0[:, k], :]
    return out


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


def shrinking_copy_score_greedy(c: np.ndarray):
    """Reference greedy matching on a congruence matrix: ``(permutation,
    picked)``.  Each pick deletes its row and column from a shrinking copy
    and maps the copy's indices back through lists of the remaining ones."""
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
    return tuple(permutation), tuple(picked)


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


def narrowest_uint(largest: int):
    """The smallest of uint8, uint16, uint32 and uint64 that holds every
    value from 0 to ``largest``."""
    return next(dtype for dtype in (np.uint8, np.uint16, np.uint32, np.uint64)
                if largest <= np.iinfo(dtype).max)


def layout_from_order(tensor, mode: int, order, rows, starts) -> ModeLayout:
    """A layout from the int64 row order of the COO positions: the other
    modes' subscripts and the counts in row order, narrowed to the
    smallest unsigned dtype that holds the mode size less one, or the
    largest count."""
    columns = tuple(
        tensor.subs0[order, k].astype(narrowest_uint(d - 1))
        for k, d in enumerate(tensor.shape.dims) if k != mode - 1)
    vals = tensor.vals[order].astype(
        narrowest_uint(int(tensor.vals.max(initial=0))))
    return ModeLayout(columns, vals, rows, starts)


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
    return layout_from_order(tensor, mode, order, sorted_rows[first], starts)


def lexsort_mode_row_positions(tensor, mode: int) -> ModeLayout:
    """Reference layout: the lexicographic sort of the mode column and the
    runs of equal rows in it."""
    col = tensor.subs0[:, mode - 1]
    order = np.lexsort((col,))
    sorted_rows = col[order]
    first = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
    return layout_from_order(tensor, mode, order, sorted_rows[first],
                             np.append(first, len(col)))


def per_row_mode_kkt_violation(tensor, model: KruskalModel, mode: int) -> float:
    """Reference mode KKT check: one Khatri-Rao gather per row and a running
    maximum that NaN propagates through, empty rows handled after the
    loop."""
    if not model.normalized:
        model = normalize(model)
    mode0 = mode - 1
    b_matrix = model.factors[mode0] * model.weights
    worst = 0.0
    has_data = np.zeros(b_matrix.shape[0], dtype=bool)
    for row0, pos in row_groups(tensor, mode):
        has_data[row0] = True
        b = b_matrix[row0]
        pi = coo_pi_product(model.factors, mode0, tensor.subs0[pos])
        m = pi @ b
        if (m <= 0.0).any():
            return float("inf")
        g = 1.0 - (tensor.vals[pos] / m) @ pi
        worst = np.maximum(worst, np.abs(np.minimum(b, g)).max())
    empty = b_matrix[~has_data]
    if empty.size:
        worst = np.maximum(worst, np.minimum(empty, 1.0).max())
    return float(worst)


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
    pi = coo_pi_product(model.factors, mode0, tensor.subs0)
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
                       tau: float = 1e-8, inner_iterations: int = 10):
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
            pi = coo_pi_product(model.factors, mode0, tensor.subs0[pos]).T
            problem = RowProblem(b_start[row0], tensor.vals[pos], pi)
            if method == "pdnr":
                b_star, report = solve_row_pdnr(problem, tau)
            else:
                b_star, report = solve_row_pqnr(problem, tau)
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
        if len(self._s) > row_solver.LBFGS_MEMORY:
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


def reference_solve_row(problem: RowProblem, method: str,
                        tau: float = row_solver.ROW_TAU):
    """Reference row loop for ``method`` "pdnr" or "pqnr": one loop that
    tests the method for its two-metric epsilon, its curvature pairs, its
    free-set direction (factorization retries inline) and its damping
    update.  ``MU0``, ``K_MAX`` and ``_hessian_block`` are read from the
    module on each call, so a test that patches them patches both loops."""
    pqnr = method == "pqnr"
    epsilon = row_solver.PQNR_EPSILON if pqnr else row_solver.PDNR_EPSILON
    store = ReferenceLbfgsStore() if pqnr else None
    b, f_b, m = row_solver._repair_start(problem, problem.b.copy())
    if not math.isfinite(f_b):
        return b, RowSolveReport(final_kkt=float("inf"))
    mu = row_solver.MU0
    iters = ls_failures = fallbacks = 0
    prev_b = prev_g = None
    while True:
        g = 1.0 - row_solver._pi_x_over_m(problem.pi, problem.x, m)
        if prev_b is not None:
            store.update(b - prev_b, g - prev_g)
        kkt = kkt_violation_row(b, g)
        if kkt <= tau or iters >= row_solver.K_MAX:
            break
        sets = partition_variables(b, g, epsilon)
        free = sets[2]
        d_free = np.zeros(0)
        model_decrease = None
        solved = True
        if pqnr:
            prev_b, prev_g = b, g
            d_free = -store.direction(np.where(free, g, 0.0))[free]
        elif np.count_nonzero(free):
            g_free = g[free]
            h_free = row_solver._hessian_block(problem, m, free)
            for _ in range(FACTORIZATION_RETRIES + 1):
                try:
                    d_free = damped_newton_direction(h_free, g_free, mu)
                    break
                except FactorizationFailureError:
                    mu = max(mu, 1e-10) * 10.0
            else:
                solved = False
            if solved:
                model_decrease = float(
                    g_free.dot(d_free) + (0.5 * d_free).dot(h_free.dot(d_free)))
        accepted = False
        if solved:
            d = assemble_direction(d_free, g, sets)
            result = row_solver.armijo_projected_search(problem, b, f_b, g, d)
            if model_decrease is not None and np.count_nonzero(d_free):
                if model_decrease < 0:
                    mu = update_damping(mu, f_b, result.f_unit, model_decrease)
                else:
                    mu = max(mu, 1e-10) * 10.0
            accepted = result.alpha is not None
            if not accepted:
                ls_failures += 1
        if accepted:
            b, f_b, m = result.b_next, result.f_next, result.m_next
        else:
            b = multiplicative_step(problem, b, m)
            m = b.dot(problem.pi)
            f_b = row_solver._f_at(problem, b, m)
            fallbacks += 1
        iters += 1
    return b, RowSolveReport(iters, float(kkt), ls_failures, fallbacks)


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


def run_at_thread_counts(script: str, *args) -> list:
    """The output of ``python -c script *args`` in a fresh interpreter run
    with one OpenBLAS thread and then with two."""
    path = [str(Path(poissoncp.__file__).parent.parent),
            *filter(None, [os.environ.get("PYTHONPATH")])]
    return [subprocess.run(
        [sys.executable, "-c", script, *args], check=True, text=True,
        capture_output=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
             "PYTHONPATH": os.pathsep.join(path)}).stdout
        for threads in (1, 2)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
