"""Exception types shared across the package, and the integer and seed checks that raise one.

The CLI maps ``ValidationError`` and file errors to exit code 1 and
``SingularSystemError`` to exit code 2; everything else is a bug.
"""
from numbers import Integral


class ValidationError(ValueError):
    """Invalid input: bad config, malformed data file, broken precondition."""


class SingularSystemError(RuntimeError):
    """A linear system required by an estimator is numerically singular."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


class UnidentifiedEffectError(ValidationError):
    """The requested effect is not identified for the requested sub-population."""


def as_integer(value, source: str, minimum: int) -> int:
    """An integer input: an integer, or a float with an integral value (JSON may
    write 10**6 as 1e6).  Bools, strings and fractions raise ``ValidationError``."""
    integral = isinstance(value, Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < minimum:
        raise ValidationError(f"{source} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def as_seed(value, source: str) -> int | tuple[int, ...]:
    """A random seed, numpy's ``SeedSequence`` entropy: a nonnegative integer, or a
    list or tuple of them, stored as a tuple; each is checked by ``as_integer``."""
    if isinstance(value, (list, tuple)):
        return tuple(as_integer(v, f"{source} entry", 0) for v in value)
    return as_integer(value, source, 0)
