"""Exception and warning types shared across the package, and the path
prefix that file readers put on data errors."""


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


def prefixed(path, exc: ValueError) -> ValueError:
    """The same kind of data error with the file path in front of its message.

    Errors whose constructors take more than a message (JSONDecodeError,
    UnicodeDecodeError) come back as plain ValueError.
    """
    message = f"{path}: {exc}"
    try:
        return type(exc)(message)
    except TypeError:
        return ValueError(message)
