"""Exception and warning types shared across the package, the path prefix
that file readers put on data errors, and the checks that every config
class applies to its integer and number fields and to the array sizes they
imply."""

import math
import numbers
import os

_INT64_MAX = 2**63 - 1


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


def is_integral(value) -> bool:
    """Whether ``value`` is an integer or an integral float (not a bool)."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer())


def check_integer(name: str, value, minimum=None, maximum=None) -> int:
    """Config field ``name`` as an int, within ``minimum`` and ``maximum``
    where given.

    An integral float counts as an integer.  A boolean, a fraction, a
    non-finite float or a non-number raises ValueError naming the field.
    """
    if not is_integral(value):
        raise ValueError(f"config field {name!r} is not a valid integer, "
                         f"got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value}")
    return value


def check_number(name: str, value) -> float:
    """Config field ``name`` as a finite float.  A boolean, a non-number,
    NaN or an infinity (also an integer too large for a float) raises
    ValueError naming the field."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f"config field {name!r} is not a valid number, "
                     f"got {value!r}")


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_size(name: str, count: int) -> None:
    """Raise ConfigError when ``count`` 8-byte values, an array size that
    config fields imply (``name`` says which), overflow int64 or exceed
    physical memory.  Called before the array is allocated."""
    if count > _INT64_MAX:
        raise ConfigError(f"{name} = {count} does not fit in int64")
    memory = physical_memory()
    if memory is not None and 8 * count > memory:
        raise ConfigError(
            f"{name} = {count} values of 8 bytes need "
            f"{8 * count / 2**30:.1f} GiB, more than the "
            f"{memory / 2**30:.1f} GiB of physical memory")
