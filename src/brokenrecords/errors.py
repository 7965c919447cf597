"""Exception types shared across the package."""
from __future__ import annotations


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
