"""Second-order solvers for one nonnegative row subproblem.

Each subproblem minimizes

    f(b) = sum_r b_r - sum_j x_j * log(sum_r b_r * pi[r, j]),   b >= 0,

where ``x`` holds the positive counts of one matricized-tensor row and
``pi`` holds the matching Khatri-Rao columns.  The function is convex, and
strictly so whenever the pi columns span R^R.  Two solvers are provided:

* ``solve_row_pdnr``: projected damped Newton.  Variables are split by a
  two-metric rule into a set fixed at zero, a set stepping along the
  negative gradient, and a free set stepping along a Levenberg-Marquardt
  damped Newton direction.
* ``solve_row_pqnr``: projected quasi-Newton.  The free-set direction comes
  from a limited-memory BFGS approximation applied over all variables.

Both run one shared loop that differs only in that free-set direction.
It uses a projected backtracking line search satisfying an Armijo
condition, and falls back to one multiplicative-update step when the
search fails, so progress is always made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (FactorizationFailureError, UndefinedAtZeroModelError,
                     check_integer, check_number)

__all__ = [
    "RowProblem",
    "SolverParams",
    "RowSolveReport",
    "LbfgsStore",
    "f_row",
    "grad_row",
    "hess_row",
    "kkt_violation_row",
    "partition_variables",
    "damped_newton_direction",
    "assemble_direction",
    "armijo_projected_search",
    "update_damping",
    "multiplicative_step",
    "solve_row_pdnr",
    "solve_row_pqnr",
]

# Fixed constants of the row solvers.
PDNR_EPSILON = 1e-3  # two-metric closeness threshold, damped Newton
PQNR_EPSILON = 1e-8  # two-metric closeness threshold, quasi-Newton
MU0 = 1e-5  # initial Levenberg-Marquardt damping
SIGMA = 1e-4  # Armijo sufficient-decrease constant
BETA = 0.5  # backtrack factor
MAX_BACKTRACKS = 10
LBFGS_MEMORY = 3  # stored curvature pairs
CURVATURE_SKIP_REL = 1e-12
FACTORIZATION_RETRIES = 5
# The step BETA^t of each backtrack t, computed once.
_STEPS = tuple(BETA ** t for t in range(MAX_BACKTRACKS + 1))


@dataclass(frozen=True)
class RowProblem:
    """One row's data: variables b (R,), counts x (J,), columns pi (R, J)."""

    b: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    pi: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        pi = np.asarray(self.pi, dtype=np.float64)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pi", pi)
        if pi.ndim != 2 or pi.shape != (b.shape[0], x.shape[0]):
            raise ValueError(
                f"pi must be {b.shape[0]} x {x.shape[0]}, got {pi.shape}"
            )
        if (b < 0).any():
            raise ValueError("b must be nonnegative")
        if (x <= 0).any():
            raise ValueError("all counts must be strictly positive")
        if (pi.size) and (pi < 0).any():
            raise ValueError("pi entries must be nonnegative")

    @property
    def rank(self) -> int:
        return int(self.b.shape[0])


@dataclass(frozen=True)
class SolverParams:
    """Stopping rule of a row solve: the KKT tolerance ``tau`` and at most
    ``k_max`` iterations.  The algorithm's other constants are fixed at
    module level (``MU0``, ``SIGMA``, ``BETA``, ``MAX_BACKTRACKS``,
    ``LBFGS_MEMORY`` and the two-metric epsilon of each direction)."""

    tau: float = 1e-8
    k_max: int = 50

    def __post_init__(self):
        object.__setattr__(self, "tau", check_number("tau", self.tau))
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "k_max", check_integer("k_max", self.k_max, 1))


@dataclass
class RowSolveReport:
    """Outcome of one row solve."""

    iterations: int = 0
    final_kkt: float = 0.0
    exact_zeros: int = 0
    backtrack_failures: int = 0
    fallback_steps: int = 0


class LineSearchResult(NamedTuple):
    alpha: Optional[float]  # None when the backtrack budget was exhausted
    b_next: np.ndarray
    f_next: float
    f_unit: float  # objective at the projected unit step, for damping updates
    evals: int
    m_next: Optional[np.ndarray] = None  # b_next @ pi of an accepted step


def _cell_values(problem: RowProblem, b: np.ndarray) -> np.ndarray:
    return b.dot(problem.pi)


def _f_at(problem: RowProblem, b: np.ndarray, m: Optional[np.ndarray] = None) -> float:
    if m is None:
        m = _cell_values(problem, b)
    total = float(np.add.reduce(b))
    if m.size == 0:
        return total
    if np.minimum.reduce(m) <= 0.0:
        return float("inf")
    return total - float(problem.x.dot(np.log(m)))


def f_row(problem: RowProblem, b: Optional[np.ndarray] = None) -> float:
    """Row objective sum(b) - sum(x * log(b @ pi)); +inf when a positive
    count sits on a zero model value."""
    return _f_at(problem, problem.b if b is None else np.asarray(b, dtype=np.float64))


def _check_defined(m: np.ndarray) -> None:
    if m.size and (m <= 0.0).any():
        raise UndefinedAtZeroModelError(
            "model value is zero at a positive count; derivatives undefined"
        )


def _pi_x_over_m(pi: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """pi @ (x / m) for an (R, J) pi: the data term of the row gradient,
    negated, and the multiplicative update factor.  Zeros when J = 0."""
    return pi.dot(x / m)


def grad_row(problem: RowProblem, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient 1 - pi @ (x / (b @ pi))."""
    b = problem.b if b is None else np.asarray(b, dtype=np.float64)
    m = _cell_values(problem, b)
    _check_defined(m)
    return 1.0 - _pi_x_over_m(problem.pi, problem.x, m)


def hess_row(problem: RowProblem, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Hessian pi @ diag(x / (b @ pi)^2) @ pi.T; positive semidefinite."""
    b = problem.b if b is None else np.asarray(b, dtype=np.float64)
    m = _cell_values(problem, b)
    _check_defined(m)
    return _hessian_block(problem, m, np.ones(b.shape[0], dtype=bool))


def _hessian_block(problem: RowProblem, m: np.ndarray, free: np.ndarray) -> np.ndarray:
    if m.size == 0:
        k = int(free.sum())
        return np.zeros((k, k))
    w = problem.x / (m * m)
    pif = problem.pi[free]
    return (pif * w).dot(pif.T)


def kkt_violation_row(b: np.ndarray, g: np.ndarray) -> float:
    """First-order optimality residual max_r |min(b_r, g_r)| under b >= 0."""
    return float(np.maximum.reduce(np.abs(np.minimum(b, g))))


def partition_variables(b: np.ndarray, g: np.ndarray, epsilon: float):
    """Two-metric split of variables into (active, gradient, free) masks.

    With w = ||b - P+(b - g)||_2 and eps_k = min(w, epsilon):
    active holds variables at zero with positive gradient, gradient holds
    variables within eps_k of zero with positive gradient, and free holds
    the rest.  The three masks partition 1..R.  Requires b >= 0, so that
    the variables within eps_k of zero include those at zero.
    """
    v = b - np.maximum(b - g, 0.0)
    w = math.sqrt(v.dot(v))
    eps_k = min(w, epsilon)
    positive_grad = g > 0.0
    bound = (b <= eps_k) & positive_grad
    active = (b == 0.0) & positive_grad
    return active, bound ^ active, ~bound


@functools.cache
def lapack_cholesky():
    """LAPACK ``(dpotrf, dpotrs)``, imported from scipy on the first call.

    Only the damped Newton direction needs LAPACK, and importing
    ``scipy.linalg`` takes about a quarter of a second, so it is deferred
    until a damped Newton fit is configured or a direction is first solved.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    return dpotrf, dpotrs


def damped_newton_direction(hess_free: np.ndarray, grad_free: np.ndarray,
                            mu: float) -> np.ndarray:
    """Solve (H + mu*I) d = -g on the free block by Cholesky factorization
    (LAPACK potrf/potrs on the lower triangle).

    Raises FactorizationFailureError when the damped matrix cannot be
    factored, which is possible only for mu = 0 with singular H.
    """
    k = grad_free.shape[0]
    if k == 0:
        return np.zeros(0)
    dpotrf, dpotrs = lapack_cholesky()
    # A Fortran-ordered copy, so LAPACK factors it in place and reads the
    # same lower triangle as of hess_free itself.
    damped = np.array(hess_free, order="F")
    damped.flat[::k + 1] += mu
    chol, info = dpotrf(damped, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise FactorizationFailureError(
            f"{info}-th leading minor of the damped block is not positive definite"
        )
    return dpotrs(chol, -grad_free, lower=1)[0]


def assemble_direction(d_free: np.ndarray, g: np.ndarray, sets) -> np.ndarray:
    """Expand a free-block step to all variables: zeros on the active set,
    the negative gradient on the gradient set.  Returns ``d_free`` itself
    when every variable is free."""
    active, gradient, free = sets
    if np.count_nonzero(free) == free.shape[0]:
        return d_free
    d = np.zeros(g.shape[0])
    d[free] = d_free
    d[gradient] = -g[gradient]
    return d


def armijo_projected_search(problem: RowProblem, b: np.ndarray, f_b: float,
                            g: np.ndarray, d: np.ndarray) -> LineSearchResult:
    """Projected backtracking search for the smallest t with

        f(P+(b + BETA^t d)) - f(b) <= SIGMA * (P+(b + BETA^t d) - b)' g.

    Trial points where the predicted change is not a strict decrease, or
    where f is +inf, fail the test and trigger another backtrack.  When t
    exceeds ``MAX_BACKTRACKS`` the result carries ``alpha=None`` and the
    caller applies a fallback step.  An accepted result carries the cell
    values ``m_next = b_next @ pi`` for the caller's next gradient.
    """
    f_unit = float("inf")
    evals = 0
    for t, step in enumerate(_STEPS):
        b_try = np.maximum(b + step * d if t else b + d, 0.0)
        predicted = float(g.dot(b_try - b))
        if predicted < 0.0:
            m_try = _cell_values(problem, b_try)
            f_try = _f_at(problem, b_try, m_try)
            evals += 1
            if t == 0:
                f_unit = f_try
            if f_try - f_b <= SIGMA * predicted:
                return LineSearchResult(step, b_try, f_try, f_unit, evals, m_try)
    return LineSearchResult(None, b, f_b, f_unit, evals)


def update_damping(mu: float, f_old: float, f_new: float,
                   model_decrease: float) -> float:
    """Levenberg-Marquardt damping update from the ratio of actual to
    predicted reduction: rho < 1/4 grows mu by 7/2, rho > 3/4 shrinks it
    by 2/7, otherwise mu is unchanged."""
    if not model_decrease < 0:
        raise ValueError(
            f"predicted model decrease must be negative, got {model_decrease}"
        )
    rho = (f_new - f_old) / model_decrease
    if rho < 0.25:
        return mu * 3.5
    if rho > 0.75:
        return mu * (2.0 / 7.0)
    return mu


def multiplicative_step(problem: RowProblem, b: np.ndarray,
                        m: Optional[np.ndarray] = None) -> np.ndarray:
    """One multiplicative update b * (pi @ (x / (b @ pi))).

    Never increases the row objective, so it serves as the rescue step when
    the line search cannot certify progress.
    """
    if m is None:
        m = _cell_values(problem, b)
    _check_defined(m)
    return b * _pi_x_over_m(problem.pi, problem.x, m)


class LbfgsStore:
    """Ring buffer of limited-memory BFGS curvature pairs.

    Pairs with s'y <= 1e-12 * ||s|| ||y|| are skipped (and counted) to keep
    the implied approximation positive definite despite roundoff.
    """

    def __init__(self, memory: int = LBFGS_MEMORY):
        if memory < 1:
            raise ValueError("memory must be at least 1")
        self.memory = int(memory)
        self._s: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._rho: list[float] = []
        self.gamma = 1.0
        self.skipped = 0

    def __len__(self) -> int:
        return len(self._s)

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store a float64 pair, evicting the oldest past capacity; returns
        whether the pair was kept.  The arrays are kept, not copied."""
        sy = float(s.dot(y))
        yy = y.dot(y)
        if sy <= CURVATURE_SKIP_REL * (math.sqrt(s.dot(s)) * math.sqrt(yy)):
            self.skipped += 1
            return False
        self._s.append(s)
        self._y.append(y)
        self._rho.append(1.0 / sy)
        if len(self._s) > self.memory:
            del self._s[0], self._y[0], self._rho[0]
        self.gamma = sy / float(yy)
        return True

    def direction(self, g: np.ndarray) -> np.ndarray:
        """Two-loop recursion returning the inverse-Hessian approximation
        applied to float64 g, as a new array; a copy of g when the store is
        empty."""
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(self._s), reversed(self._y),
                             reversed(self._rho)):
            alpha = rho * float(s.dot(q))
            q -= alpha * y
            alphas.append(alpha)
        if not alphas:
            return q
        r = self.gamma * q
        for s, y, rho, alpha in zip(self._s, self._y, self._rho,
                                    reversed(alphas)):
            beta = rho * float(y.dot(r))
            r += (alpha - beta) * s
        return r


def _repair_start(problem: RowProblem, b: np.ndarray):
    """Make the start feasible when exact zeros in b leave a positive count
    with zero model value; returns (b, f(b), b @ pi) where f(b) may still be
    infinite when no lift can help (an all-zero pi column under a positive
    count)."""
    m = _cell_values(problem, b)
    f_b = _f_at(problem, b, m)
    if math.isfinite(f_b):
        return b, f_b, m
    scale = float(b.max()) if b.size and b.max() > 0 else 1.0
    lifted = np.where(b > 0.0, b, 1e-10 * scale)
    m_lifted = _cell_values(problem, lifted)
    f_lifted = _f_at(problem, lifted, m_lifted)
    if math.isfinite(f_lifted):
        return lifted, f_lifted, m_lifted
    return b, f_b, m


def _finish(b: np.ndarray, kkt: float, iters: int, ls_failures: int,
            fallbacks: int) -> RowSolveReport:
    return RowSolveReport(
        iterations=iters,
        final_kkt=float(kkt),
        exact_zeros=int(np.count_nonzero(b == 0.0)),
        backtrack_failures=ls_failures,
        fallback_steps=fallbacks,
    )


def _damped_direction_with_retries(h_free, g_free, mu):
    """Damped Newton solve, bumping mu tenfold on factorization failure up
    to a retry cap; the final failure reports solved=False and the caller
    takes a multiplicative rescue step."""
    for _ in range(FACTORIZATION_RETRIES + 1):
        try:
            return damped_newton_direction(h_free, g_free, mu), mu, True
        except FactorizationFailureError:
            mu = max(mu, 1e-10) * 10.0
    return np.zeros_like(g_free), mu, False


def _solve_row(problem: RowProblem, params: SolverParams,
               store: Optional[LbfgsStore]):
    """The loop shared by both solvers: gradient -> KKT check -> two-metric
    partition -> free-set direction -> projected Armijo search, with a
    multiplicative rescue step when no certified step is found.  The
    free-set direction is damped Newton when ``store`` is None and the
    L-BFGS two-loop over ``store`` otherwise, each with its own two-metric
    epsilon."""
    epsilon = PDNR_EPSILON if store is None else PQNR_EPSILON
    b, f_b, m = _repair_start(problem, problem.b.copy())
    if not math.isfinite(f_b):
        return b, _finish(b, float("inf"), 0, 0, 0)
    mu = MU0
    iters = ls_failures = fallbacks = 0
    prev_b = prev_g = None
    while True:
        g = 1.0 - _pi_x_over_m(problem.pi, problem.x, m)
        if prev_b is not None:
            store.update(b - prev_b, g - prev_g)
        kkt = kkt_violation_row(b, g)
        if kkt <= params.tau or iters >= params.k_max:
            break
        sets = partition_variables(b, g, epsilon)
        free = sets[2]
        d_free = np.zeros(0)
        model_decrease = None
        solved = True
        if store is not None:
            # The free-set step is the free block of the inverse approximation
            # applied to the free gradient, i.e. the two-loop acting on the
            # gradient with non-free components zeroed.  Feeding the raw
            # gradient instead lets large bound-set components leak into the
            # free direction and ruin descent.
            prev_b, prev_g = b, g
            if np.count_nonzero(free) == free.shape[0]:
                d_free = -store.direction(g)
            else:
                d_free = -store.direction(np.where(free, g, 0.0))[free]
        elif np.count_nonzero(free):
            g_free = g[free]
            h_free = _hessian_block(problem, m, free)
            d_free, mu, solved = _damped_direction_with_retries(h_free, g_free, mu)
            if solved:
                model_decrease = float(
                    g_free.dot(d_free) + (0.5 * d_free).dot(h_free.dot(d_free))
                )
        accepted = False
        if solved:
            d = assemble_direction(d_free, g, sets)
            if not np.count_nonzero(d):
                break
            result = armijo_projected_search(problem, b, f_b, g, d)
            if model_decrease is not None and np.count_nonzero(d_free):
                if model_decrease < 0:
                    mu = update_damping(mu, f_b, result.f_unit, model_decrease)
                else:
                    # Roundoff on a near-singular block (tiny mu, J < R) can
                    # make the predicted decrease nonnegative; treat it like
                    # a failed factorization.
                    mu = max(mu, 1e-10) * 10.0
            accepted = result.alpha is not None
            if not accepted:
                ls_failures += 1
        if accepted:
            b, f_b, m = result.b_next, result.f_next, result.m_next
        else:
            b = multiplicative_step(problem, b, m)
            m = _cell_values(problem, b)
            f_b = _f_at(problem, b, m)
            fallbacks += 1
        iters += 1
    return b, _finish(b, kkt, iters, ls_failures, fallbacks)


def solve_row_pdnr(problem: RowProblem, params: Optional[SolverParams] = None):
    """Projected damped Newton solve of one row subproblem.

    Iterates gradient -> KKT check -> two-metric partition -> damped Newton
    direction on the free set -> projected Armijo search -> damping update,
    stopping when the KKT violation falls to ``params.tau`` or after
    ``params.k_max`` steps.  Returns (b_star, RowSolveReport).
    """
    return _solve_row(problem, params or SolverParams(), None)


def solve_row_pqnr(problem: RowProblem, params: Optional[SolverParams] = None):
    """Projected quasi-Newton solve of one row subproblem.

    Same loop as :func:`solve_row_pdnr` with the free-set direction taken
    from a limited-memory BFGS approximation over all variables; the
    curvature pair from each step feeds a store that starts empty.
    Returns (b_star, RowSolveReport).
    """
    return _solve_row(problem, params or SolverParams(), LbfgsStore())
