"""Exception types shared across the package, and its one argument rule."""
from __future__ import annotations

import operator


class TieError(ValueError):
    """Two observations compare equal.

    The model assumes draws from a continuous distribution, so ties carry
    probability zero and every downstream count is defined only for
    distinct values.  ``indices`` holds a colliding pair of positions when
    the caller could identify one.
    """

    def __init__(self, message: str, indices: tuple[int, int] | None = None):
        super().__init__(message)
        self.indices = indices


class UsageError(ValueError):
    """A caller-supplied argument is outside its domain (CLI exit 2)."""


class CapacityError(ValueError):
    """A requested computation exceeds a configured size cap."""


class InvariantError(RuntimeError):
    """A structural or conservation invariant failed during an audit.

    Carries enough context to replay the failing trajectory.
    """

    def __init__(
        self,
        message: str,
        *,
        seed: int | None = None,
        trial: int | None = None,
        step: int | None = None,
    ):
        super().__init__(message)
        self.seed = seed
        self.trial = trial
        self.step = step


class PartialResultError(RuntimeError):
    """A multi-chunk run failed midway; ``completed`` trials had finished."""

    def __init__(self, message: str, *, completed: int):
        super().__init__(message)
        self.completed = completed


def checked_int(name: str, value, least: int | None = 0) -> int:
    """``value`` as an int of at least ``least`` (None: no bound), else UsageError.

    Every count argument of the public API passes here.  A numpy integer
    becomes the Python int of its value, so no fixed-width product wraps
    around later; a float or any other non-integer is refused."""
    try:
        value = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise UsageError(f"{name} must be {bound}, got {value}")
    return value
