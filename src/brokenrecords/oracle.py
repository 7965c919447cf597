"""Exact ground truth by exhaustive enumeration of orderings.

Break and record counts depend only on the relative order of the
observations, so averaging over all (n + 1)! permutations of ranks gives
the exact joint law for small n.  Every ordering is still checked, one
numpy block at a time: the last t = min(n + 1, 7) positions run through a
fixed table of all t! arrangements, and each ordered choice of the
values in front of them makes one block.  Within a block the record sets
come straight from the definition -- position i holds a record of the
first m + 1 values when its value equals the maximum of positions i..m,
a reversed running maximum -- deliberately sharing no code with the
incremental stack or the vectorized sampler it is used to check.

Costs grow factorially; ``DEFAULT_MAX_N`` keeps casual calls cheap and
``HARD_MAX_N`` is the absolute ceiling.  Working memory is one block,
whatever n is.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .exact import Pmf

DEFAULT_MAX_N = 8
HARD_MAX_N = 10


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
        return Pmf(n=self.n, mass=mass, mode="exact")

    def marginal_r_prev(self) -> Pmf:
        mass: dict[int, Fraction] = {}
        for (_, r), p in self.mass.items():
            mass[r] = mass.get(r, Fraction(0)) + p
        return Pmf(n=self.n - 1, mass=mass, mode="exact")

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
    b1_index: dict[int, int]


_TEMPLATE_WIDTH = 7  # 7! = 5,040 rows per block


def _record_mask(block: np.ndarray, m: int) -> np.ndarray:
    """Mask of positions i <= m whose value tops everything after them."""
    head = block[:, : m + 1]
    suffix_max = np.maximum.accumulate(head[:, ::-1], axis=1)[:, ::-1]
    return head == suffix_max


def _counts(hist: np.ndarray) -> dict[int, int]:
    return {i: int(c) for i, c in enumerate(hist) if c}


@lru_cache(maxsize=16)
def _enumerate(n: int) -> _EnumCounts:
    size = n + 1
    t = min(size, _TEMPLATE_WIDTH)
    template = np.array(list(itertools.permutations(range(t))), dtype=np.uint8)
    joint = np.zeros(size * size, dtype=np.int64)
    r_now = np.zeros(size + 1, dtype=np.int64)
    b1_index = np.zeros(size, dtype=np.int64)
    block = np.empty((len(template), size), dtype=np.uint8)
    for head in itertools.permutations(range(size), size - t):
        rest = np.array(sorted(set(range(size)) - set(head)), dtype=np.uint8)
        block[:, : size - t] = head
        block[:, size - t :] = rest[template]
        prev = _record_mask(block, n - 1)
        r_prev = prev.sum(axis=1)
        b = (prev & (block[:, :n] < block[:, n:])).sum(axis=1)
        r = _record_mask(block, n).sum(axis=1)
        bad = np.flatnonzero(r != r_prev + 1 - b)
        if bad.size:
            perm = tuple(int(v) for v in block[bad[0]])
            raise AssertionError(f"conservation violated in enumeration: perm={perm}")
        joint += np.bincount(b * size + r_prev, minlength=size * size)
        r_now += np.bincount(r, minlength=size + 1)
        single = (b == 1) & (r_prev >= 2)
        if single.any():
            # The one broken record sits at n - 1; the survivor beneath it
            # is the newest record of the prefix at a smaller index.
            older = np.where(prev[single, : n - 1], np.arange(n - 1), -1)
            b1_index += np.bincount(older.max(axis=1), minlength=size)
    return _EnumCounts(
        joint={divmod(key, size): c for key, c in _counts(joint).items()},
        r_now=_counts(r_now),
        b1_index=_counts(b1_index),
    )


def _check_capacity(n: int, max_n: int) -> None:
    cap = min(max_n, HARD_MAX_N)
    if n > cap:
        hint = (
            f"raise max_n (ceiling {HARD_MAX_N})"
            if cap < HARD_MAX_N
            else f"the ceiling is {HARD_MAX_N}"
        )
        raise CapacityError(
            f"enumeration for n={n} needs {factorial(n + 1)} permutations, "
            f"over the cap of n={cap}; {hint}"
        )


def oracle_joint(n: int, *, max_n: int = DEFAULT_MAX_N) -> JointPmf:
    """Exact joint law of (final break count, prior record count)."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_capacity(n, max_n)
    denom = factorial(n + 1)
    counts = _enumerate(n)
    mass = {key: Fraction(c, denom) for key, c in counts.joint.items()}
    return JointPmf(n=n, mass=mass)


def oracle_pmf_b(n: int, *, max_n: int = DEFAULT_MAX_N) -> Pmf:
    """Exact law of the number of records broken at the final step."""
    return oracle_joint(n, max_n=max_n).marginal_b()


def oracle_pmf_r(n: int, *, max_n: int = DEFAULT_MAX_N) -> Pmf:
    """Exact law of the record count after n + 1 observations."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return Pmf(n=0, mass={1: Fraction(1)}, mode="exact")
    _check_capacity(n, max_n)
    denom = factorial(n + 1)
    counts = _enumerate(n)
    mass = {r: Fraction(c, denom) for r, c in counts.r_now.items()}
    return Pmf(n=n, mass=mass, mode="exact")


def oracle_single_break_profile(n: int, *, max_n: int = DEFAULT_MAX_N) -> dict[int, Fraction]:
    """Mass of single-survivor-position events behind a lone break.

    Maps each index i to the exact probability that the final step breaks
    exactly one record while the record at index i survives directly
    beneath it.  Summing the values and adding the no-survivor mass
    recovers the full single-break probability.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_capacity(n, max_n)
    denom = factorial(n + 1)
    counts = _enumerate(n)
    return {i: Fraction(c, denom) for i, c in sorted(counts.b1_index.items())}
