"""Exact ground truth by exhaustive enumeration of orderings.

Break and record counts depend only on the relative order of the
observations, so averaging over all (n + 1)! permutations of ranks gives
the exact joint law for small n.  Every ordering is still checked, one
numpy pass at a time: a fixed table holds all t! arrangements of the t =
min(n + 1, 8) smallest values, and each ordered choice of positions for
the n + 1 - t largest values, n first, makes one pass.  The other t
positions, in increasing order, read table rows 0 .. t - 1 in place, and
a position that holds a large value is one uint8 scalar, so a pass
copies nothing.  Every ordering arises once: the positions fix where the
large values are, and the table column the relative order of the rest.
Up to n = 7 that is a single pass; n = 8 takes 9 and n = 10 990.

A pass is column-major: one ordering per column, one position per row,
rows of 40,320 uint8 values.  The record sets come straight from the
definition -- position i holds a record of the first m + 1 values when
its value tops every value after it -- read right to left with a running
maximum.  Each step of that scan is a handful of ufunc calls over one
row, into preallocated uint8 rows (bool results are written through
views of them), so the only Python-level loop is over the n + 1
positions.  One pass over positions n - 1 .. 0 gives the prefix records
and the break count, and their joint cell is the one tally.  The record
set after the final step loses the broken records and gains (n, X_n), so
R_n = R_{n-1} + 1 - B_n and the law of R_n is read off that tally.  A
second scan from position n, ``_record_counts``, counts R_n from the
definition all the same, and every ordering is checked against that
identity.  The row-major alternative, a ``maximum.accumulate`` along
rows of n + 1 values, runs numpy's inner loop once per ordering over
only nine or so values, and that per-row overhead dominates: at n = 8
the accumulate alone takes about 11 ms, four times this whole
enumeration (2.7 ms).  None of this shares code with the
incremental stack or the vectorized sampler it is used to check.

Costs grow factorially, so n is capped at ``MAX_N``: n = 10 enumerates
11! orderings in about 0.4 s and 31 MB of process peak on a 2-CPU Xeon,
and every n above it is refused with CapacityError before any work.
Working memory is the table and seven rows of 40,320 values, about
0.65 MB traced, whatever n is.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapacityError, checked_int
from .exact import Pmf

MAX_N = 10


@dataclass
class JointPmf:
    """Joint law of the final break count and the prior record count."""

    n: int
    mass: dict[tuple[int, int], Fraction]

    def total(self) -> Fraction:
        return sum(self.mass.values(), Fraction(0))

    def _fold(self, key, n: int) -> Pmf:
        """The law of ``key(b, r_prev)``, as a pmf at horizon n."""
        mass: dict[int, Fraction] = {}
        for cell, p in self.mass.items():
            k = key(*cell)
            mass[k] = mass.get(k, Fraction(0)) + p
        return Pmf(n=n, mass=dict(sorted(mass.items())))

    def marginal_b(self) -> Pmf:
        return self._fold(lambda b, _: b, self.n)

    def marginal_r_prev(self) -> Pmf:
        return self._fold(lambda _, r: r, self.n - 1)

    def tail_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with at least one survivor."""
        return sum(
            (p for (b, r), p in self.mass.items() if b == k and r >= k + 1),
            Fraction(0),
        )

    def lone_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with none surviving."""
        return self.mass.get((k, k), Fraction(0))


_TEMPLATE_WIDTH = 8  # 8! = 40,320 orderings per pass


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
    rows: list, top: np.ndarray, rec: np.ndarray, out: np.ndarray
) -> None:
    """Per ordering, the number of records among all positions ``rows``.

    Reads the positions right to left: one is a record when its value
    tops the running maximum ``top`` of the positions after it.  ``top``
    and ``rec`` are uint8 scratch rows.
    """
    np.copyto(top, rows[-1])
    out.fill(1)
    for row in reversed(rows[:-1]):
        np.greater(row, top, out=rec.view(bool))
        out += rec
        np.maximum(top, row, out=top)


@lru_cache(maxsize=16)
def _enumerate(n: int) -> dict[tuple[int, int], int]:
    """Orderings of n + 1 values per (break count, prior record count)."""
    size = n + 1
    t = min(size, _TEMPLATE_WIDTH)
    template = _arrangements(t)
    width = template.shape[1]
    big = [np.uint8(v) for v in range(n, t - 1, -1)]
    # uint8 holds every count and joint cell b * (n + 1) + r_prev while
    # (n + 1)**2 <= 256, well past MAX_N.
    top, rec, hit, r_prev, b, r, cell = np.empty((7, width), dtype=np.uint8)
    is_rec, is_hit, is_b = rec.view(bool), hit.view(bool), b.view(bool)
    joint = np.zeros(size * size, dtype=np.int64)
    # pos[j] holds the value n - j; the other positions read the template.
    for pos in itertools.permutations(range(size), size - t):
        placed = dict(zip(pos, big))
        small = iter(template)
        rows = [placed[i] if i in placed else next(small) for i in range(size)]
        last = rows[n]
        # Records of the first n values, read right to left from n - 1,
        # which is always one.  b counts those below the final value.
        np.copyto(top, rows[n - 1])
        r_prev.fill(1)
        np.less(top, last, out=is_b)
        for row in reversed(rows[: n - 1]):
            np.greater(row, top, out=is_rec)
            np.maximum(top, row, out=top)
            r_prev += rec
            np.less(row, last, out=is_hit)
            hit &= rec
            b += hit
        _record_counts(rows, top, rec, r)
        np.add(r_prev, 1, out=cell)
        cell -= b
        np.not_equal(cell, r, out=is_hit)
        bad = np.flatnonzero(is_hit)
        if bad.size:
            perm = tuple(int(np.broadcast_to(row, width)[bad[0]]) for row in rows)
            raise AssertionError(f"conservation violated in enumeration: perm={perm}")
        np.multiply(b, size, out=cell)
        cell += r_prev
        for part in cell.reshape(t, -1):
            joint += np.bincount(part, minlength=size * size)
    return {divmod(key, size): int(c) for key, c in enumerate(joint) if c}


def oracle_joint(n: int) -> JointPmf:
    """Exact joint law of (final break count, prior record count).

    The one place where the oracle checks the cap, before any work.
    """
    n = checked_int("n", n, 1)
    if n > MAX_N:
        raise CapacityError(
            f"enumeration for n={n} needs {factorial(n + 1)} permutations, "
            f"over the cap of n={MAX_N}"
        )
    denom = factorial(n + 1)
    return JointPmf(n=n, mass={cell: Fraction(c, denom) for cell, c in _enumerate(n).items()})


def oracle_pmf_b(n: int) -> Pmf:
    """Exact law of the number of records broken at the final step."""
    return oracle_joint(n).marginal_b()


def oracle_pmf_r(n: int) -> Pmf:
    """Exact law of the record count after n + 1 observations."""
    n = checked_int("n", n)
    if n == 0:
        return Pmf(n=0, mass={1: Fraction(1)})
    return oracle_joint(n)._fold(lambda b, r_prev: r_prev + 1 - b, n)

