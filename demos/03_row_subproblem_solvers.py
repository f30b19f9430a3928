#!/usr/bin/env python3
"""One row subproblem, solved three ways.

Fitting alternates over modes, and each mode splits into independent
row subproblems: minimize sum(b) - sum(x * log(b @ pi)) over b >= 0, with
one vector b per row of the unfolded tensor.  This script builds a single
row problem and walks through the machinery: derivatives, the two-metric
variable split, the damped Newton and quasi-Newton solvers, and the
multiplicative update they are compared against.

It ends with a timing note on how the per-iteration cost scales with the
number of components: solving the Newton system is cubic in the free-set
size, while the limited-memory update stays linear.
"""

import time

import numpy as np

from poissoncp import (
    RowProblem,
    f_row,
    grad_row,
    hess_row,
    kkt_violation_row,
    solve_row_pdnr,
    solve_row_pqnr,
)
from poissoncp.row_solver import multiplicative_step, partition_variables

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# A row problem with 4 components and 12 nonzero columns.
r, j = 4, 12
problem = RowProblem(
    b=rng.uniform(0.5, 2.0, r),
    x=rng.integers(1, 20, j).astype(float),
    pi=rng.uniform(0.05, 1.0, (r, j)),
)
g = grad_row(problem)
print(f"f(b0) = {f_row(problem):.4f}")
print(f"gradient: {np.round(g, 3)}")
print(f"Hessian eigenvalues: {np.round(np.linalg.eigvalsh(hess_row(problem)), 4)}")
print(f"KKT violation at b0: {kkt_violation_row(problem.b, g):.3f}")

active, gradient, free = partition_variables(problem.b, g, 1e-3)
print(f"two-metric split: {int(active.sum())} fixed at zero, "
      f"{int(gradient.sum())} gradient-step, {int(free.sum())} free")

# ---------------------------------------------------------------------------
# Solve with both second-order methods; they must agree on the optimum.
b_newton, rep_n = solve_row_pdnr(problem, tau=1e-10)
b_quasi, rep_q = solve_row_pqnr(problem, tau=1e-10)
newton_zeros = int((b_newton == 0).sum())
print(f"\ndamped Newton:  b* = {np.round(b_newton, 6)} "
      f"({rep_n.iterations} iterations, kkt {rep_n.final_kkt:.1e}, "
      f"{newton_zeros} exact zeros)")
print(f"quasi-Newton:   b* = {np.round(b_quasi, 6)} "
      f"({rep_q.iterations} iterations, kkt {rep_q.final_kkt:.1e})")
print(f"agreement: {np.abs(b_newton - b_quasi).max():.2e}")

# The multiplicative update is the classic first-order alternative: safe
# and monotone, but it approaches zero bounds only geometrically.
b = problem.b.copy()
done = 0
print("\nmultiplicative updates from the same start:")
for target in (10, 100, 1000):
    while done < target:
        b = multiplicative_step(problem, b)
        done += 1
    gap = f_row(problem, b) - f_row(problem, b_newton)
    print(f"after {target:>4} updates: objective gap {gap:.2e}, "
          f"exact zeros {int((b == 0).sum())} vs {newton_zeros}")

# ---------------------------------------------------------------------------
# Per-iteration cost scaling (timing note, machine dependent): the damped
# Newton step factors an |F| x |F| system, the quasi-Newton step only runs
# a two-loop recursion over a handful of stored pairs.
print("\nper-solve time vs component count (fixed 60 nonzero columns):")
print(f"{'R':>5} {'newton':>10} {'quasi':>10}")
for r in (20, 40, 80, 160):
    p = RowProblem(
        b=rng.uniform(0.5, 2.0, r),
        x=rng.integers(1, 20, 60).astype(float),
        pi=rng.uniform(0.05, 1.0, (r, 60)),
    )
    t0 = time.perf_counter()
    solve_row_pdnr(p)
    t_newton = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_row_pqnr(p)
    t_quasi = time.perf_counter() - t0
    print(f"{r:>5} {t_newton * 1e3:>9.2f}ms {t_quasi * 1e3:>9.2f}ms")
