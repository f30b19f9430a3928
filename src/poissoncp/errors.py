"""Exception and warning types shared across the package."""


class IndexOutOfRangeError(ValueError):
    """A multi-index, mode, or row falls outside the tensor shape."""


class DuplicateIndexError(ValueError):
    """The same multi-index appears more than once in a COO entry list."""


class NonpositiveCountError(ValueError):
    """A COO entry has a zero or negative count."""


class ShapeMismatchError(ValueError):
    """Two models, or a model and a tensor, have incompatible shapes."""


class UndefinedAtZeroModelError(ArithmeticError):
    """A derivative was requested at a point where the model is zero but the
    data count is positive, so the log term is undefined."""


class FactorizationFailureError(RuntimeError):
    """Cholesky factorization of a damped Hessian block failed."""


class ConfigError(ValueError):
    """A run configuration file is missing fields or has invalid values."""


class DataError(ValueError):
    """An input data file is malformed or holds invalid values."""


class ZeroColumnWarning(UserWarning):
    """A factor column was identically zero during normalization; its weight
    was set to zero and the column replaced by a uniform distribution."""
