"""Streaming maintenance of the current-record set of a sequence.

An observation (i, x_i) is a current record at time t if no later
observation beats it: x_j < x_i for every j with i < j <= t.  The current
records therefore form a staircase, indices strictly increasing and values
strictly decreasing, and the newest observation is always one of them.
Appending an observation evicts the trailing run of records with smaller
values; the number evicted is the break count of that step.

The incremental structure here does exactly that eviction, so a whole
trajectory costs O(1) amortized per step.  It keeps the records as two
parallel plain lists, indices and values, so a step builds no object;
``RecordEntry`` pairs are built only when a caller reads ``entries`` or
iterates.  ``RecordStack.extend`` is the one eviction loop: ``step`` calls
it with one value and ``run_trajectory`` with the whole sequence.
``records_by_scan`` recomputes the record set straight from the
definition as an independent cross-check: one right-to-left pass keeps
each value that exceeds the running maximum of the values after it, with
no stack and no eviction.  That pass is ``scan_distinct``, which skips the
tie screen, for a row that ``run_trajectory`` has already screened.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import TieError, UsageError

Value = Union[int, float]


@dataclass(frozen=True, slots=True)
class RecordEntry:
    """One current record: observation index and observed value.

    The stack stores no entries; it builds them when ``entries`` is read.
    """

    index: int
    value: Value


class RecordStack:
    """The current-record set, oldest record first.

    Held as two parallel lists, ``_idx`` (observation indices) and
    ``_val`` (observed values), so a step pushes and pops plain list
    items and builds no object; ``entries`` builds a fresh list of
    ``RecordEntry`` on demand, and mutating it leaves the stack alone.

    Invariants: indices strictly increase, values strictly decrease, and
    the newest index equals the current time.  ``extend`` is the one
    eviction loop and maintains them incrementally; ``validate`` rechecks
    them from scratch and is what the tests call after every mutation.
    """

    __slots__ = ("_idx", "_val")

    def __init__(self, entries: Iterable[RecordEntry] = ()):
        entries = list(entries)
        self._idx: list[int] = [e.index for e in entries]
        self._val: list[Value] = [e.value for e in entries]
        self.validate()

    @property
    def entries(self) -> list[RecordEntry]:
        """The records as a new ``RecordEntry`` list, oldest first."""
        return [RecordEntry(i, v) for i, v in zip(self._idx, self._val)]

    @property
    def time(self) -> int:
        """Index of the newest observation, or -1 before any arrive."""
        return self._idx[-1] if self._idx else -1

    def indices(self) -> list[int]:
        return list(self._idx)

    def values(self) -> list[Value]:
        return list(self._val)

    def step(self, value: Value) -> int:
        """Append the next observation; return how many records it breaks."""
        return self.extend((value,))[0][0]

    def extend(self, values: Iterable[Value]) -> tuple[list[int], list[int]]:
        """Append observations in order; return (breaks, sizes) per value.

        Each value evicts the trailing records below it, then (time + 1,
        value) is pushed; ``breaks[j]`` is how many records value j broke
        and ``sizes[j]`` the record count just after it arrived.  Raises
        UsageError on a NaN, before it touches the stack, and TieError if
        a value equals the record left after its evictions, which stay
        done; the values before either stay applied.
        """
        idx, val = self._idx, self._val
        push_i, push_v, pop_i, pop_v = idx.append, val.append, idx.pop, val.pop
        breaks: list[int] = []
        sizes: list[int] = []
        add_break, add_size = breaks.append, sizes.append
        arriving = idx[-1] + 1 if idx else 0
        for v in values:
            if v != v:
                raise UsageError("observation is not comparable (NaN)")
            broken = 0
            while val and val[-1] < v:
                pop_i()
                pop_v()
                broken += 1
            if val and val[-1] == v:
                raise TieError(
                    f"value {v!r} at index {arriving} ties the record at "
                    f"index {idx[-1]}",
                    indices=(idx[-1], arriving),
                )
            push_i(arriving)
            push_v(v)
            add_break(broken)
            add_size(len(val))
            arriving += 1
        return breaks, sizes

    def validate(self) -> None:
        """Recheck the staircase invariants, raising ValueError on failure."""
        idx, val = self._idx, self._val
        for j in range(1, len(idx)):
            if idx[j] <= idx[j - 1]:
                raise ValueError(
                    f"indices not strictly increasing: {idx[j - 1]} then {idx[j]}"
                )
            if not val[j] < val[j - 1]:
                raise ValueError(
                    f"values not strictly decreasing: {val[j - 1]!r} then {val[j]!r}"
                )

    def __len__(self) -> int:
        return len(self._idx)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordStack):
            return NotImplemented
        return self._idx == other._idx and self._val == other._val

    def __repr__(self) -> str:
        inner = ", ".join(f"({i}, {v!r})" for i, v in zip(self._idx, self._val))
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
    """Raise UsageError on a NaN and TieError on the first repeated value.

    The screen runs at C level: NaN is the only value unequal to itself,
    and distinct values make a set as long as the list.  Only a failing
    input is walked in Python, to name the first offender.
    """
    if all(map(operator.eq, values, values)) and len(set(values)) == len(values):
        return
    seen: dict[Value, int] = {}
    for i, v in enumerate(values):
        if v != v:
            raise UsageError(f"observation at index {i} is not comparable (NaN)")
        j = seen.setdefault(v, i)
        if j != i:
            raise TieError(
                f"values at indices {j} and {i} are equal ({v!r})", indices=(j, i)
            )


def run_trajectory(values: Iterable[Value]) -> TrajectoryStats:
    """Feed a full value sequence through a fresh stack and keep the history.

    One ``extend`` call runs the whole sequence through the stack's single
    eviction loop.  ``r_path`` is the stack size it recorded after each
    step and ``b_path`` the pops it counted, two separate measurements, so
    the recursion between them is a real check.  The whole input is
    screened for ties up front, so a TieError arrives before any step
    runs.  At least one observation is required.
    """
    vals = list(values)
    if not vals:
        raise UsageError("trajectory needs at least one observation")
    _check_distinct(vals)
    stack = RecordStack()
    breaks, sizes = stack.extend(vals)
    return TrajectoryStats(
        n=len(vals) - 1, r_path=sizes, b_path=breaks[1:], final_records=stack
    )


def records_by_scan(values: Iterable[Value]) -> RecordStack:
    """Current records straight from the definition, as a cross-check.

    Screens the values (UsageError on a NaN, TieError on a repeated
    value), then scans them with ``scan_distinct``.
    """
    vals = list(values)
    _check_distinct(vals)
    return scan_distinct(vals)


def scan_distinct(vals: Sequence[Value]) -> RecordStack:
    """The definitional records of values already screened as distinct.

    Keeps (i, x_i) iff x_i exceeds every later value.  One right-to-left
    pass carries the maximum of the values already read, so each value is
    compared once: linear time, and no step of the incremental stack.  The
    kept pairs go straight into the stack's two lists.
    """
    stack = RecordStack()
    idx, val = stack._idx, stack._val
    top = None
    for i in range(len(vals) - 1, -1, -1):
        v = vals[i]
        if top is None or v > top:
            idx.append(i)
            val.append(v)
            top = v
    idx.reverse()
    val.reverse()
    stack.validate()
    return stack
