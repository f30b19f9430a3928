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
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (FactorizationFailureError, UndefinedAtZeroModelError,
                     check_number)

__all__ = [
    "RowProblem",
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
K_MAX = 50  # iterations of one row solve
ROW_TAU = 1e-8  # default KKT tolerance of a direct row or mode solve
LBFGS_MEMORY = 3  # stored curvature pairs
CURVATURE_SKIP_REL = 1e-12
FACTORIZATION_RETRIES = 5
# Entries per chunk of a long sum.  OpenBLAS splits a dot product of more
# than 10,000 entries, and a matrix-vector product of 9,216 matrix entries
# or more, among threads, in an order that depends on their number; a
# chunk stays below both cut-offs, so one thread sums it.
SUM_CHUNK = 8192
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
        if b.shape[0] == 0:
            raise ValueError("b must hold at least one variable")
        # The reductions propagate NaN, so each comparison fails on one.
        if not (np.minimum.reduce(b, initial=np.inf) >= 0.0
                and np.maximum.reduce(b, initial=0.0) < np.inf):
            raise ValueError("b must be nonnegative and finite")
        if not (np.minimum.reduce(x, initial=np.inf) > 0.0
                and np.maximum.reduce(x, initial=0.0) < np.inf):
            raise ValueError("all counts must be strictly positive and finite")
        if not (np.minimum.reduce(pi, axis=None, initial=np.inf) >= 0.0
                and np.maximum.reduce(pi, axis=None, initial=0.0) < np.inf):
            raise ValueError("pi entries must be nonnegative and finite")

    @property
    def rank(self) -> int:
        return int(self.b.shape[0])


@dataclass
class RowSolveReport:
    """Outcome of one row solve."""

    iterations: int = 0
    final_kkt: float = 0.0
    backtrack_failures: int = 0
    fallback_steps: int = 0


class LineSearchResult(NamedTuple):
    alpha: Optional[float]  # None when the backtrack budget was exhausted
    b_next: np.ndarray
    f_next: float
    f_unit: float  # objective at the projected unit step, for damping updates
    evals: int
    m_next: Optional[np.ndarray] = None  # b_next @ pi of an accepted step


def _chunked_dot(a: np.ndarray, w: np.ndarray):
    """``a.dot(w)`` for a 1-D ``w`` and a 1-D or ``(R, J)`` ``a``.  When
    ``w`` is longer than ``SUM_CHUNK``, the chunks of ``a`` of at most
    ``SUM_CHUNK`` entries are summed one by one and added in order, so the
    bits do not depend on the number of OpenBLAS threads."""
    n = w.shape[0]
    if n <= SUM_CHUNK:
        return a.dot(w)
    step = max(SUM_CHUNK * n // a.size, 1)
    total = a[..., :step].dot(w[:step])
    for k in range(step, n, step):
        total = total + a[..., k:k + step].dot(w[k:k + step])
    return total


def _f_at(problem: RowProblem, b: np.ndarray, m: Optional[np.ndarray] = None) -> float:
    if m is None:
        m = b.dot(problem.pi)
    total = float(np.add.reduce(b))
    if np.minimum.reduce(m, initial=np.inf) <= 0.0:
        return float("inf")
    return total - float(_chunked_dot(problem.x, np.log(m)))


def f_row(problem: RowProblem, b: Optional[np.ndarray] = None) -> float:
    """Row objective sum(b) - sum(x * log(b @ pi)); +inf when a positive
    count sits on a zero model value."""
    return _f_at(problem, problem.b if b is None else np.asarray(b, dtype=np.float64))


def _check_defined(m: np.ndarray) -> None:
    if (m <= 0.0).any():
        raise UndefinedAtZeroModelError(
            "model value is zero at a positive count; derivatives undefined"
        )


def _pi_x_over_m(pi: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """pi @ (x / m) for an (R, J) pi: the data term of the row gradient,
    negated, and the multiplicative update factor.  Zeros when J = 0."""
    return _chunked_dot(pi, x / m)


def _block_model(b_blk: np.ndarray, counts: np.ndarray,
                 pi: np.ndarray) -> np.ndarray:
    """Model values ``b_i @ pi_j`` of every nonzero of a block of rows: row
    ``i``'s variables ``b_blk[i]`` against each of its ``counts[i]``
    Khatri-Rao rows in the block's ``(J, R)`` ``pi``, row after row."""
    return np.einsum("zr,zr->z", np.repeat(b_blk, counts, axis=0), pi)


def _block_pi_x_over_m(pi: np.ndarray, x_over_m: np.ndarray,
                       starts: np.ndarray) -> np.ndarray:
    """:func:`_pi_x_over_m` of every row of a block, one row per line: the
    segment sums from ``starts`` of the block's ``(J, R)`` ``pi`` scaled by
    its ``x / m``.  The same terms as the per-row dot product, summed in
    another order."""
    return np.add.reduceat(pi * x_over_m[:, None], starts, axis=0)


def grad_row(problem: RowProblem, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient 1 - pi @ (x / (b @ pi))."""
    b = problem.b if b is None else np.asarray(b, dtype=np.float64)
    m = b.dot(problem.pi)
    _check_defined(m)
    return 1.0 - _pi_x_over_m(problem.pi, problem.x, m)


def hess_row(problem: RowProblem, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Hessian pi @ diag(x / (b @ pi)^2) @ pi.T; positive semidefinite."""
    b = problem.b if b is None else np.asarray(b, dtype=np.float64)
    m = b.dot(problem.pi)
    _check_defined(m)
    return _hessian_block(problem, m, np.ones(b.shape[0], dtype=bool))


def _hessian_block(problem: RowProblem, m: np.ndarray, free: np.ndarray) -> np.ndarray:
    w = problem.x / (m * m)
    pif = problem.pi[free]
    return (pif * w).dot(pif.T)


def kkt_violation_row(b: np.ndarray, g: np.ndarray) -> float:
    """First-order optimality residual max_r |min(b_r, g_r)| under b >= 0;
    on several rows' flattened b and g, the largest of their residuals."""
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
    """LAPACK ``(dpotrf, dpotrs)``, loaded from scipy on the first call.

    Only the damped Newton direction needs LAPACK.  Both routines live in
    scipy's compiled extension ``scipy.linalg._flapack``, but importing it
    by name first runs the ``scipy.linalg`` package ``__init__``, which
    loads most of ``scipy.linalg``: about a quarter of a second and 28 MB.
    So the extension file is loaded on its own, after ``import scipy`` has
    run scipy's start-up hooks, for about 15 ms and 4 MB; its functions are
    the very objects that ``scipy.linalg.lapack`` exports.  An extension
    that ``scipy.linalg`` has already loaded is reused, and the public
    ``scipy.linalg.lapack`` import runs only when scipy's ``linalg`` folder
    holds no ``_flapack`` file for this interpreter.  The call is deferred
    until a damped Newton fit is configured or a direction is first solved.
    """
    import scipy

    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
        paths = [stem + suffix
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)]
        if not paths:
            from scipy.linalg.lapack import dpotrf, dpotrs

            return dpotrf, dpotrs
        spec = importlib.util.spec_from_file_location(name, paths[0])
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
    return flapack.dpotrf, flapack.dpotrs


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
    the negative gradient on the gradient set.  Returns a new array, which
    shares no memory with ``d_free`` or ``g``."""
    active, gradient, free = sets
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
        b_try = np.maximum(b + step * d, 0.0)
        predicted = float(g.dot(b_try - b))
        if predicted < 0.0:
            m_try = b_try.dot(problem.pi)
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
        m = b.dot(problem.pi)
    _check_defined(m)
    return b * _pi_x_over_m(problem.pi, problem.x, m)


class LbfgsStore:
    """Ring buffer of the last ``LBFGS_MEMORY`` limited-memory BFGS
    curvature pairs.

    Pairs with s'y <= 1e-12 * ||s|| ||y|| are skipped (and counted) to keep
    the implied approximation positive definite despite roundoff.
    """

    def __init__(self):
        self._s: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._rho: list[float] = []
        self.gamma = 1.0
        self.skipped = 0
        self._prev = None  # (b, g) of the last free_step

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
        if len(self._s) > LBFGS_MEMORY:
            del self._s[0], self._y[0], self._rho[0]
        self.gamma = sy / float(yy)
        return True

    def direction(self, g: np.ndarray) -> np.ndarray:
        """Two-loop recursion returning the inverse-Hessian approximation
        applied to float64 g, as a new array that shares no memory with g;
        with no stored pair, ``gamma`` is 1 and that array equals g."""
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(self._s), reversed(self._y),
                             reversed(self._rho)):
            alpha = rho * float(s.dot(q))
            q -= alpha * y
            alphas.append(alpha)
        r = self.gamma * q
        for s, y, rho, alpha in zip(self._s, self._y, self._rho,
                                    reversed(alphas)):
            beta = rho * float(y.dot(r))
            r += (alpha - beta) * s
        return r

    def free_step(self, problem: RowProblem, b: np.ndarray, m: np.ndarray,
                  g: np.ndarray, free: np.ndarray, mu: float):
        """The row loop's quasi-Newton step ``(d_free, mu, None)``, after
        storing the pair from the last call's ``(b, g)``: the free block of
        the two-loop applied to g with its non-free entries zeroed, so that
        large bound-set components cannot leak in and ruin descent."""
        if self._prev is not None:
            self.update(b - self._prev[0], g - self._prev[1])
        self._prev = b, g
        return -self.direction(np.where(free, g, 0.0))[free], mu, None


def _repair_start(problem: RowProblem, b: np.ndarray):
    """Make the start feasible when exact zeros in b leave a positive count
    with zero model value; returns (b, f(b), b @ pi) where f(b) may still be
    infinite when no lift can help (an all-zero pi column under a positive
    count)."""
    m = b.dot(problem.pi)
    f_b = _f_at(problem, b, m)
    if math.isfinite(f_b):
        return b, f_b, m
    scale = float(b.max()) if b.size and b.max() > 0 else 1.0
    lifted = np.where(b > 0.0, b, 1e-10 * scale)
    m_lifted = lifted.dot(problem.pi)
    f_lifted = _f_at(problem, lifted, m_lifted)
    if math.isfinite(f_lifted):
        return lifted, f_lifted, m_lifted
    return b, f_b, m


def _damped_step(problem: RowProblem, b: np.ndarray, m: np.ndarray,
                 g: np.ndarray, free: np.ndarray, mu: float):
    """The row loop's damped Newton step ``(d_free, mu, decrease)``, with
    ``d_free`` None when no factorization succeeds and ``decrease`` the
    negative predicted decrease, or None.  ``mu`` grows tenfold on each
    failed factorization and on a nonnegative predicted decrease, which
    roundoff on a near-singular block (tiny mu, J < R) can give."""
    g_free = g[free]
    h_free = _hessian_block(problem, m, free)
    for _ in range(FACTORIZATION_RETRIES + 1):
        try:
            d_free = damped_newton_direction(h_free, g_free, mu)
        except FactorizationFailureError:
            d_free = None
        else:
            decrease = float(
                g_free.dot(d_free) + (0.5 * d_free).dot(h_free.dot(d_free)))
            if decrease < 0.0:
                return d_free, mu, decrease
            if not np.count_nonzero(d_free):
                return d_free, mu, None
        mu = max(mu, 1e-10) * 10.0
        if d_free is not None:
            return d_free, mu, None
    return None, mu, None


def _solve_row(problem: RowProblem, tau: float, epsilon: float, step):
    """The loop shared by both solvers: gradient -> KKT check -> two-metric
    partition at ``epsilon`` -> free-set ``step`` -> projected Armijo
    search, with a multiplicative rescue step when no certified step is
    found.  It stops when the KKT violation falls to ``tau`` or after
    ``K_MAX`` steps, and checks ``tau`` first.  ``step(problem, b, m, g,
    free, mu)`` returns ``(d_free, mu, decrease)`` as :func:`_damped_step`
    does; a ``decrease`` drives the Levenberg-Marquardt damping update."""
    tau = check_number("tau", tau, positive=True)
    b, f_b, m = _repair_start(problem, problem.b.copy())
    if not math.isfinite(f_b):
        return b, RowSolveReport(final_kkt=float("inf"))
    mu = MU0
    iters = ls_failures = fallbacks = 0
    while True:
        g = 1.0 - _pi_x_over_m(problem.pi, problem.x, m)
        kkt = kkt_violation_row(b, g)
        if kkt <= tau or iters >= K_MAX:
            break
        sets = partition_variables(b, g, epsilon)
        d_free, mu, decrease = step(problem, b, m, g, sets[2], mu)
        accepted = False
        if d_free is not None:
            d = assemble_direction(d_free, g, sets)
            result = armijo_projected_search(problem, b, f_b, g, d)
            if decrease is not None:
                mu = update_damping(mu, f_b, result.f_unit, decrease)
            accepted = result.alpha is not None
            if not accepted:
                ls_failures += 1
        if accepted:
            b, f_b, m = result.b_next, result.f_next, result.m_next
        else:
            b = multiplicative_step(problem, b, m)
            m = b.dot(problem.pi)
            f_b = _f_at(problem, b, m)
            fallbacks += 1
        iters += 1
    return b, RowSolveReport(iters, float(kkt), ls_failures, fallbacks)


def solve_row_pdnr(problem: RowProblem, tau: float = ROW_TAU):
    """Projected damped Newton solve of one row subproblem.

    Iterates gradient -> KKT check -> two-metric partition -> damped Newton
    direction on the free set -> projected Armijo search -> damping update,
    stopping when the KKT violation falls to ``tau`` or after ``K_MAX``
    steps.  Returns (b_star, RowSolveReport).  Raises ValueError when
    ``tau`` is not a positive finite number.
    """
    return _solve_row(problem, tau, PDNR_EPSILON, _damped_step)


def solve_row_pqnr(problem: RowProblem, tau: float = ROW_TAU):
    """Projected quasi-Newton solve of one row subproblem.

    Same loop as :func:`solve_row_pdnr` with the free-set direction taken
    from a limited-memory BFGS approximation over all variables; the
    curvature pair from each step feeds a store that starts empty.
    Returns (b_star, RowSolveReport).  Raises ValueError when ``tau`` is
    not a positive finite number.
    """
    return _solve_row(problem, tau, PQNR_EPSILON, LbfgsStore().free_step)
