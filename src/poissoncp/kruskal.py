"""CP (Kruskal) models: weights plus one nonnegative factor matrix per mode.

The represented tensor is m(i) = sum_r lambda_r * prod_n A[n][i_n, r].  A
model is *normalized* when every factor column sums to one; the column mass
is carried by the weight vector.  Normalization never changes the
represented tensor.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ZeroColumnWarning, prefixed
from .sparse_tensor import Shape, SparseCountTensor, as_shape

__all__ = [
    "KruskalModel",
    "normalize",
    "model_entries",
    "kl_objective",
    "save_model",
    "load_model",
]

NORMALIZE_TOL = 1e-12


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
        True when every factor column sums to one (within 1e-12).
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
                if err > NORMALIZE_TOL:
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


def _pi_product(factors, mode0: int | None, subs0: np.ndarray) -> np.ndarray:
    """(J, R) rows prod_{k != mode0} factors[k][subs0[:, k], :], 0-based.

    A ``mode0`` of None skips no mode, giving the rows whose products with
    the weights are the model values at ``subs0``."""
    j = subs0.shape[0]
    r = factors[0].shape[1]
    out = np.ones((j, r), dtype=np.float64)
    for k, f in enumerate(factors):
        if k != mode0:
            out *= f[subs0[:, k], :]
    return out


# Subscript rows per block of model_entries: bounds its (rows, R) temporaries.
# A multiple of 4, so the blocked matrix-vector products sum each row as
# the one-shot product over all rows does.
_ENTRY_BLOCK_ROWS = 65536


def model_entries(model: KruskalModel, subs0: np.ndarray) -> np.ndarray:
    """Vectorized model values at the given 0-based subscript rows."""
    out = np.empty(subs0.shape[0], dtype=np.float64)
    for start in range(0, subs0.shape[0], _ENTRY_BLOCK_ROWS):
        block = subs0[start:start + _ENTRY_BLOCK_ROWS]
        out[start:start + block.shape[0]] = (
            _pi_product(model.factors, None, block) @ model.weights)
    return out


def kl_objective(model: KruskalModel, tensor: SparseCountTensor) -> float:
    """Kullback-Leibler fit of the model to a count tensor.

    Computes sum_i m_i - sum_{nonzero i} x_i log m_i with 0 log 0 = 0.  The
    first term over all cells reduces to sum_r lambda_r once the model is
    normalized, so the cost is proportional to the number of nonzeros.
    Returns +inf when any positive count sits on a zero model value, which
    line searches treat as an automatic rejection.
    """
    if model.shape.dims != as_shape(tensor.shape).dims:
        raise ShapeMismatchError(
            f"model shape {model.shape.dims} != tensor shape {tensor.shape.dims}"
        )
    if not model.normalized:
        model = normalize(model)
    first = float(model.weights.sum())
    if tensor.nnz == 0:
        return first
    m = model_entries(model, tensor.subs0)
    if (m <= 0.0).any():
        return float("inf")
    return first - float(tensor.vals @ np.log(m))


def save_model(model: KruskalModel, path) -> None:
    """Write a model to JSON with fields lambda, factors, dims, R."""
    doc = {
        "dims": list(model.shape.dims),
        "R": model.rank,
        "lambda": model.weights.tolist(),
        "factors": [f.tolist() for f in model.factors],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> KruskalModel:
    """Read a model written by :func:`save_model`.

    A file that is not JSON, lacks a field, or holds invalid or mutually
    inconsistent fields raises ValueError (or its ShapeMismatchError
    subclass) with a message that starts with the path.
    """
    with open(path) as fh:
        try:
            return _parse_model(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing model field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"{path}: malformed model ({exc})") from exc
        except ValueError as exc:
            raise prefixed(path, exc) from exc


def _parse_model(doc) -> KruskalModel:
    factors = tuple(np.asarray(f, dtype=np.float64) for f in doc["factors"])
    model = KruskalModel(np.asarray(doc["lambda"], dtype=np.float64), factors)
    dims = tuple(doc["dims"])
    if model.shape.dims != dims or model.rank != int(doc["R"]):
        raise ShapeMismatchError("header fields disagree with factors")
    return model
