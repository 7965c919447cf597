"""Streaming maintenance of the current-record set of a sequence.

An observation (i, x_i) is a current record at time t if no later
observation beats it: x_j < x_i for every j with i < j <= t.  The current
records therefore form a staircase, indices strictly increasing and values
strictly decreasing, and the newest observation is always one of them.
Appending an observation evicts the trailing run of records with smaller
values; the number evicted is the break count of that step.

The incremental structure here does exactly that eviction, so a whole
trajectory costs O(1) amortized per step.  ``records_by_scan`` recomputes
the record set straight from the definition as an independent cross-check:
one right-to-left pass keeps each value that exceeds the running maximum
of the values after it, with no stack and no eviction.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import TieError

Value = Union[int, float]


@dataclass(frozen=True, slots=True)
class RecordEntry:
    """One current record: observation index and observed value.

    Slotted, so the stack's hot loop builds and reads it without a dict.
    """

    index: int
    value: Value


class RecordStack:
    """The current-record set, oldest record first.

    Invariants: entry indices strictly increase, entry values strictly
    decrease, and the newest entry's index equals the current time.
    ``step`` maintains them incrementally; ``validate`` rechecks them from
    scratch and is what the tests call after every mutation.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[RecordEntry] = ()):
        self.entries: list[RecordEntry] = list(entries)
        self.validate()

    @property
    def time(self) -> int:
        """Index of the newest observation, or -1 before any arrive."""
        return self.entries[-1].index if self.entries else -1

    def indices(self) -> list[int]:
        return [e.index for e in self.entries]

    def values(self) -> list[Value]:
        return [e.value for e in self.entries]

    def step(self, value: Value) -> int:
        """Append the next observation; return how many records it breaks.

        Evicts the trailing entries whose values lie below ``value``, then
        pushes (time + 1, value).  Raises TieError if ``value`` equals a
        surviving record's value.
        """
        if value != value:
            raise ValueError("observation is not comparable (NaN)")
        entries = self.entries
        arriving = entries[-1].index + 1 if entries else 0
        broken = 0
        while entries and entries[-1].value < value:
            entries.pop()
            broken += 1
        if entries and entries[-1].value == value:
            raise TieError(
                f"value {value!r} at index {arriving} ties the record at "
                f"index {entries[-1].index}",
                indices=(entries[-1].index, arriving),
            )
        entries.append(RecordEntry(arriving, value))
        return broken

    def validate(self) -> None:
        """Recheck the staircase invariants, raising ValueError on failure."""
        entries = self.entries
        for prev, cur in zip(entries, entries[1:]):
            if cur.index <= prev.index:
                raise ValueError(
                    f"indices not strictly increasing: {prev.index} then {cur.index}"
                )
            if not cur.value < prev.value:
                raise ValueError(
                    f"values not strictly decreasing: {prev.value!r} then {cur.value!r}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordStack):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"({e.index}, {e.value!r})" for e in self.entries)
        return f"RecordStack([{inner}])"


@dataclass
class TrajectoryStats:
    """Per-step history of one trajectory of n + 1 observations.

    ``r_path[t]`` is the record count after observation t (t = 0..n) and
    ``b_path[t - 1]`` the break count of step t (t = 1..n), so the two
    satisfy r_path[t] = r_path[t - 1] + 1 - b_path[t - 1] with
    r_path[0] = 1.
    """

    n: int
    r_path: list[int]
    b_path: list[int]
    final_records: RecordStack = field(repr=False)

    @property
    def total_broken(self) -> int:
        return sum(self.b_path)


def _check_distinct(values: Sequence[Value]) -> None:
    """Raise ValueError on a NaN and TieError on the first repeated value.

    The screen runs at C level: NaN is the only value unequal to itself,
    and distinct values make a set as long as the list.  Only a failing
    input is walked in Python, to name the first offender.
    """
    if all(map(operator.eq, values, values)) and len(set(values)) == len(values):
        return
    seen: dict[Value, int] = {}
    for i, v in enumerate(values):
        if v != v:
            raise ValueError(f"observation at index {i} is not comparable (NaN)")
        j = seen.setdefault(v, i)
        if j != i:
            raise TieError(
                f"values at indices {j} and {i} are equal ({v!r})", indices=(j, i)
            )


def run_trajectory(values: Iterable[Value]) -> TrajectoryStats:
    """Feed a full value sequence through a fresh stack and keep the history.

    The whole input is screened for ties up front, so a TieError arrives
    before any step runs.  At least one observation is required.
    """
    vals = list(values)
    if not vals:
        raise ValueError("trajectory needs at least one observation")
    _check_distinct(vals)
    stack = RecordStack()
    push, entries = stack.step, stack.entries
    push(vals[0])
    r_path = [1]
    b_path = []
    for v in vals[1:]:
        b_path.append(push(v))
        r_path.append(len(entries))
    return TrajectoryStats(
        n=len(vals) - 1, r_path=r_path, b_path=b_path, final_records=stack
    )


def records_by_scan(values: Iterable[Value]) -> RecordStack:
    """Current records straight from the definition, as a cross-check.

    Keeps (i, x_i) iff x_i exceeds every later value.  One right-to-left
    pass carries the maximum of the values already read, so each value is
    compared once: linear time, and no step of the incremental stack.
    """
    vals = list(values)
    _check_distinct(vals)
    kept: list[RecordEntry] = []
    top = None
    for i in range(len(vals) - 1, -1, -1):
        v = vals[i]
        if top is None or v > top:
            kept.append(RecordEntry(i, v))
            top = v
    kept.reverse()
    return RecordStack(kept)
