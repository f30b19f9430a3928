"""CP (Kruskal) models: weights plus one nonnegative factor matrix per mode.

The represented tensor is m(i) = sum_r lambda_r * prod_n A[n][i_n, r].  A
model is *normalized* when every factor column sums to one; the column mass
is carried by the weight vector.  Normalization never changes the
represented tensor.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ZeroColumnWarning, prefixed
from .sparse_tensor import BLOCK_DOUBLES, Shape, SparseCountTensor

__all__ = [
    "KruskalModel",
    "normalize",
    "model_entries",
    "kl_objective",
    "save_model",
    "load_model",
]

# A sum of n normalized entries is exact only to about n * eps, so a
# normalized factor's column sums may be off by that much more.
NORMALIZE_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_FLOAT_MAX = float(np.finfo(np.float64).max)
# The largest total mass a model may have: no model value then exceeds it,
# so the squares the row solves take of model values stay finite.
MASS_MAX = math.sqrt(_FLOAT_MAX)
# Numbers per json.dumps call in save_model: the C encoder keeps each
# number's string until the call returns, so a block bounds that memory.
_JSON_BLOCK_DOUBLES = 1024


@dataclass(frozen=True)
class KruskalModel:
    """Nonnegative CP model: weight vector and per-mode factor matrices.

    Attributes
    ----------
    weights:
        (R,) nonnegative weight vector.
    factors:
        One (I_n, R) nonnegative matrix per mode.
    normalized:
        True when every factor column sums to one, within
        ``NORMALIZE_TOL`` plus the roundoff of summing its ``I_n`` entries.
    """

    weights: np.ndarray = field(repr=False)
    factors: tuple[np.ndarray, ...] = field(repr=False)
    normalized: bool = False

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "factors", factors)
        r = weights.shape[0]
        if r < 1:
            raise ValueError("model needs at least one component")
        if len(factors) < 2:
            raise ValueError("model needs at least two modes")
        for n, f in enumerate(factors, start=1):
            if f.ndim != 2 or f.shape[1] != r:
                raise ShapeMismatchError(
                    f"factor {n} must be I_{n} x {r}, got {f.shape}"
                )
            if f.shape[0] < 1:
                raise ShapeMismatchError(f"factor {n} has no rows")
        if not all(((a >= 0.0) & (a < np.inf)).all()  # False at NaN
                   for a in (weights, *factors)):
            raise ValueError("weights and factor entries must be finite and "
                             "nonnegative")
        if self.normalized:
            for n, f in enumerate(factors, start=1):
                err = np.abs(f.sum(axis=0) - 1.0).max()
                if err > NORMALIZE_TOL + f.shape[0] * _EPS:
                    raise ValueError(
                        f"factor {n} flagged normalized but a column sum is "
                        f"off by {err:.3g}"
                    )

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> Shape:
        return Shape(tuple(f.shape[0] for f in self.factors))


def normalize(model: KruskalModel) -> KruskalModel:
    """Rescale factor columns to unit l1 norm, absorbing mass into weights.

    A column that is identically zero cannot be rescaled; its weight becomes
    zero, the column is replaced by the uniform distribution 1/I_n, and a
    ZeroColumnWarning is issued.  The represented tensor is unchanged.
    """
    weights = model.weights.copy()
    factors = []
    for n, f in enumerate(model.factors, start=1):
        sums = f.sum(axis=0)
        zero = sums == 0.0
        if zero.any():
            warnings.warn(
                f"factor {n} has {int(zero.sum())} zero column(s); weights "
                "set to zero and columns made uniform",
                ZeroColumnWarning,
                stacklevel=2,
            )
            f = f.copy()
            f[:, zero] = 1.0 / f.shape[0]
            weights[zero] = 0.0
            sums = np.where(zero, 1.0, sums)
        weights *= sums
        factors.append(f / sums)
    return KruskalModel(weights, tuple(factors), normalized=True)


def _pi_product(factors, mode0: int | None, columns) -> np.ndarray:
    """(J, R) rows prod_{k != mode0} factors[k][i_k, :], 0-based.

    ``columns`` holds one length-J index column per gathered mode, in mode
    order: every mode but ``mode0``, or every mode when ``mode0`` is None,
    which gives the rows whose products with the weights are the model
    values.  Each factor's rows are gathered with one ``np.take``, whose
    bounds check raises IndexError on an index outside the factor."""
    gathered = [f for k, f in enumerate(factors) if k != mode0]
    out = np.take(gathered[0], columns[0], axis=0)
    for f, col in zip(gathered[1:], columns[1:], strict=True):
        out *= np.take(f, col, axis=0)
    return out


def _unit_columns(factors) -> list[np.ndarray]:
    """l2-normalize factor columns; identically zero columns stay zero."""
    norms = [np.linalg.norm(f, axis=0) for f in factors]
    return [f / np.where(n == 0.0, 1.0, n) for f, n in zip(factors, norms)]


def model_entries(model: KruskalModel, columns) -> np.ndarray:
    """Vectorized model values at the nonzeros whose 0-based indices
    ``columns`` holds, one index column per mode: a tensor's ``columns``,
    or the transpose of an ``(nnz, N)`` subscript array.  They go in blocks
    of a multiple of 4 nonzeros and about ``BLOCK_DOUBLES`` gathered
    doubles: the temporaries stay in cache, and the blocked products sum
    each row as the one-shot matrix-vector product over all rows does."""
    step = 4 * max(BLOCK_DOUBLES // (4 * model.rank), 1)
    nnz = len(columns[0])
    out = np.empty(nnz, dtype=np.float64)
    for start in range(0, nnz, step):
        block = [column[start:start + step] for column in columns]
        out[start:start + len(block[0])] = (
            _pi_product(model.factors, None, block) @ model.weights)
    return out


def _prepared(model: KruskalModel, tensor: SparseCountTensor) -> KruskalModel:
    """``model``, normalized, for a walk over ``tensor``'s nonzeros; a
    ShapeMismatchError unless the model's dims are the tensor's."""
    if model.shape.dims != tensor.shape.dims:
        raise ShapeMismatchError(f"model shape {model.shape.dims} != "
                                 f"tensor shape {tensor.shape.dims}")
    return model if model.normalized else normalize(model)


def kl_objective(model: KruskalModel, tensor: SparseCountTensor) -> float:
    """Kullback-Leibler fit of the model to a count tensor.

    Computes sum_i m_i - sum_{nonzero i} x_i log m_i with 0 log 0 = 0.  The
    first term over all cells reduces to sum_r lambda_r once the model is
    normalized, so the cost is proportional to the number of nonzeros.
    Returns +inf when any positive count x sits on a model value m that is
    zero, or so close to zero that x / m**2, a weight of the row solves'
    Hessian, overflows.
    """
    model = _prepared(model, tensor)
    first = float(model.weights.sum())
    m = model_entries(model, tensor.columns)
    # The counts go to float64 in one cast, so the sum stays one BLAS dot
    # product over all nonzeros and keeps its bits.
    x = tensor.counts.astype(np.float64)
    # The extremes rule the case out without a temporary array per nonzero.
    if (m.min(initial=np.inf) < math.sqrt(x.max(initial=0) / _FLOAT_MAX)
            and (m < np.sqrt(x / _FLOAT_MAX)).any()):
        return float("inf")
    return first - float(x @ np.log(m, out=m))


def save_model(model: KruskalModel, path) -> None:
    """Write a model to JSON with fields lambda, factors, dims, R.

    The bytes are those of ``json.dump`` on the whole document, but the
    encoding runs in C: ``json.dumps`` takes the factor rows in blocks of
    about ``_JSON_BLOCK_DOUBLES`` numbers.
    """
    head = json.dumps({"dims": list(model.shape.dims), "R": model.rank,
                       "lambda": model.weights.tolist(), "factors": []})
    step = max(_JSON_BLOCK_DOUBLES // model.rank, 1)
    with open(path, "w") as fh:
        fh.write(head[:-2])  # up to the factors' opening bracket
        for k, f in enumerate(model.factors):
            fh.write(", [" if k else "[")
            for lo in range(0, f.shape[0], step):
                rows = json.dumps(f[lo:lo + step].tolist())[1:-1]
                fh.write(", " + rows if lo else rows)
            fh.write("]")
        fh.write("]}\n")


def load_model(path) -> KruskalModel:
    """Read a model written by :func:`save_model`.

    ``R`` and each ``dims`` entry must be JSON integers, ``lambda`` a flat
    list of numbers and each factor a list of equal-length lists of
    numbers.  A file that is not JSON or nests too deep to decode, lacks a
    field, or holds invalid or mutually inconsistent fields raises
    ValueError (or its ShapeMismatchError subclass) with a message that
    starts with the path.
    """
    with open(path) as fh:
        try:
            return _parse_model(json.load(fh))
        except RecursionError as exc:  # JSON nested too deep to decode
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
        except KeyError as exc:
            raise ValueError(f"{path}: missing model field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"{path}: malformed model ({exc})") from exc
        except ValueError as exc:
            raise prefixed(path, exc) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(value) -> bool:
    """Whether ``value`` is a JSON array of numbers."""
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)


def _matrix(value) -> bool:
    """Whether ``value`` is a JSON array of equal-length arrays of numbers."""
    return (isinstance(value, list) and all(map(_numbers, value))
            and len({len(row) for row in value}) <= 1)


def _parse_model(doc) -> KruskalModel:
    factors, weights, dims, rank = (doc[key] for key in (
        "factors", "lambda", "dims", "R"))
    if not isinstance(factors, list):
        raise ValueError("model field 'factors' must be a list of factors")
    for n, f in enumerate(factors, start=1):
        if not _matrix(f):
            raise ValueError(f"model field 'factors': factor {n} must be a "
                             "list of equal-length lists of numbers")
    if not _numbers(weights):
        raise ValueError("model field 'lambda' must be a list of numbers")
    if not (isinstance(dims, list) and all(map(_is_int, dims))):
        raise ValueError("model field 'dims' must be a list of integers")
    if not _is_int(rank):
        raise ValueError("model field 'R' must be an integer")
    model = KruskalModel(np.asarray(weights, dtype=np.float64),
                         tuple(np.asarray(f, dtype=np.float64)
                               for f in factors))
    if model.shape.dims != tuple(dims) or model.rank != rank:
        raise ShapeMismatchError("header fields disagree with factors")
    return model
