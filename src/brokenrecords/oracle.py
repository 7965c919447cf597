"""Exact ground truth by exhaustive enumeration of orderings.

Break and record counts depend only on the relative order of the
observations, so averaging over all (n + 1)! permutations of ranks gives
the exact joint law for small n.  Every ordering is still checked, one
numpy block at a time: the last t = min(n + 1, 7) positions run through a
fixed table of all t! arrangements, and each ordered choice of the
values in front of them makes one block.

A block is column-major: one ordering per column, one position per row,
(n + 1) rows of 5,040 uint8 values.  The record sets come straight from
the definition -- position i holds a record of the first m + 1 values
when its value tops every value after it -- read right to left with a
running maximum.  Each step of that scan is a handful of ufunc calls over
one contiguous row of 5,040 values, into preallocated buffers, so the
only Python-level loop is over the n + 1 positions.  One pass over
positions n - 1 .. 0 gives the prefix records and the break count; a
second pass from position n gives the record count after the final
step.  The row-major alternative, a
``maximum.accumulate`` along rows of n + 1 values, runs numpy's inner
loop once per ordering over only nine or so values, and that per-row
overhead dominates: it is about five times slower at n = 8, and larger
blocks only make it worse.  None of this shares code with the
incremental stack or the vectorized sampler it is used to check.

Costs grow factorially, so n is capped at ``MAX_N``: n = 10 enumerates
11! orderings in about 2 s and 31 MB of process peak on a 2-CPU Xeon, and
every n above it is refused with CapacityError before any work.  Working
memory is one block, whatever n is.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, checked_int
from .exact import Pmf

MAX_N = 10


@dataclass
class JointPmf:
    """Joint law of the final break count and the prior record count."""

    n: int
    mass: dict[tuple[int, int], Fraction]

    def prob(self, b: int, r_prev: int) -> Fraction:
        return self.mass.get((b, r_prev), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.mass.values(), Fraction(0))

    def marginal_b(self) -> Pmf:
        mass: dict[int, Fraction] = {}
        for (b, _), p in self.mass.items():
            mass[b] = mass.get(b, Fraction(0)) + p
        return Pmf(n=self.n, mass=mass)

    def marginal_r_prev(self) -> Pmf:
        mass: dict[int, Fraction] = {}
        for (_, r), p in self.mass.items():
            mass[r] = mass.get(r, Fraction(0)) + p
        return Pmf(n=self.n - 1, mass=mass)

    def tail_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with at least one survivor."""
        return sum(
            (p for (b, r), p in self.mass.items() if b == k and r >= k + 1),
            Fraction(0),
        )

    def lone_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with none surviving."""
        return self.mass.get((k, k), Fraction(0))


class _EnumCounts(NamedTuple):
    joint: dict[tuple[int, int], int]
    r_now: dict[int, int]


_TEMPLATE_WIDTH = 7  # 7! = 5,040 orderings per block


def _arrangements(t: int) -> np.ndarray:
    """All t! orderings of range(t) as the columns of a (t, t!) array.

    Columns come in lexicographic order: each ordering of range(k) is a
    first value v above an ordering of range(k - 1) whose entries >= v
    are raised by one.
    """
    cols = np.zeros((1, 1), dtype=np.uint8)
    for k in range(2, t + 1):
        m = cols.shape[1]
        grown = np.empty((k, k * m), dtype=np.uint8)
        for v in range(k):
            grown[0, v * m : (v + 1) * m] = v
            np.add(cols, cols >= v, out=grown[1:, v * m : (v + 1) * m])
        cols = grown
    return cols


def _record_counts(
    block: np.ndarray, top: np.ndarray, rec: np.ndarray, out: np.ndarray
) -> None:
    """Per column, the number of records among all rows of ``block``.

    Reads the rows right to left: a row is a record when its value tops
    the running maximum ``top`` of the rows after it.  ``top`` and
    ``rec`` are scratch rows.
    """
    np.copyto(top, block[-1])
    out.fill(1)
    for col in block[-2::-1]:
        np.greater(col, top, out=rec)
        out += rec
        np.maximum(top, col, out=top)


def _counts(hist: np.ndarray) -> dict[int, int]:
    return {i: int(c) for i, c in enumerate(hist) if c}


@lru_cache(maxsize=16)
def _enumerate(n: int) -> _EnumCounts:
    size = n + 1
    t = min(size, _TEMPLATE_WIDTH)
    template = _arrangements(t)
    width = template.shape[1]
    block = np.empty((size, width), dtype=np.uint8)
    top = np.empty(width, dtype=np.uint8)
    rec = np.empty(width, dtype=bool)
    hit = np.empty(width, dtype=bool)
    # uint8 holds every count and joint cell b * (n + 1) + r_prev while
    # (n + 1)**2 <= 256, well past MAX_N.
    r_prev, b, r, cell = np.empty((4, width), dtype=np.uint8)
    joint = np.zeros(size * size, dtype=np.int64)
    r_now = np.zeros(size + 1, dtype=np.int64)
    last = block[n]
    for head in itertools.permutations(range(size), size - t):
        rest = np.array(sorted(set(range(size)) - set(head)), dtype=np.uint8)
        block[: size - t] = np.array(head, dtype=np.uint8)[:, None]
        np.take(rest, template, out=block[size - t :])
        # Records of the first n values, read right to left from n - 1,
        # which is always one.  b counts those below the final value.
        np.copyto(top, block[n - 1])
        r_prev.fill(1)
        np.less(top, last, out=b)
        for i in range(n - 2, -1, -1):
            col = block[i]
            np.greater(col, top, out=rec)
            np.maximum(top, col, out=top)
            r_prev += rec
            np.less(col, last, out=hit)
            hit &= rec
            b += hit
        _record_counts(block, top, rec, r)
        np.add(r_prev, 1, out=cell)
        cell -= b
        bad = np.flatnonzero(cell != r)
        if bad.size:
            perm = tuple(int(v) for v in block[:, bad[0]])
            raise AssertionError(f"conservation violated in enumeration: perm={perm}")
        np.multiply(b, size, out=cell)
        cell += r_prev
        joint += np.bincount(cell, minlength=size * size)
        r_now += np.bincount(r, minlength=size + 1)
    return _EnumCounts(
        joint={divmod(key, size): c for key, c in _counts(joint).items()},
        r_now=_counts(r_now),
    )


def _masses(n: int, tally: str) -> dict:
    """One tally of the enumeration at n as exact masses.

    The one place where the oracle checks the cap, before any work; its
    callers have checked n.
    """
    if n > MAX_N:
        raise CapacityError(
            f"enumeration for n={n} needs {factorial(n + 1)} permutations, "
            f"over the cap of n={MAX_N}"
        )
    denom = factorial(n + 1)
    return {key: Fraction(c, denom) for key, c in getattr(_enumerate(n), tally).items()}


def oracle_joint(n: int) -> JointPmf:
    """Exact joint law of (final break count, prior record count)."""
    n = checked_int("n", n, 1)
    return JointPmf(n=n, mass=_masses(n, "joint"))


def oracle_pmf_b(n: int) -> Pmf:
    """Exact law of the number of records broken at the final step."""
    return oracle_joint(n).marginal_b()


def oracle_pmf_r(n: int) -> Pmf:
    """Exact law of the record count after n + 1 observations."""
    n = checked_int("n", n)
    if n == 0:
        return Pmf(n=0, mass={1: Fraction(1)})
    return Pmf(n=n, mass=_masses(n, "r_now"))

