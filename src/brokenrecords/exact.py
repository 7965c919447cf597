"""Closed-form quantities for the law of the break count.

Everything here returns exact rationals (fractions.Fraction) unless the
quantity is intrinsically real, like the logarithmic remainder bound.  The
break count of the final step is written k throughout; n is the number of
steps, so a trajectory holds n + 1 observations.

``exact_pmf_b`` gives the full law for every k from one row of integers.
Split on the suffix after the last of X_0, ..., X_{n-1} that lies above
X_n.  Its length L satisfies P[L >= l] = 1/(l + 1), since that is the
chance X_n is the largest of the last l + 1 values, and the records
broken at step n are exactly the right-to-left maxima of that suffix.
Given L = l the suffix is a uniform arrangement, so by Renyi's
record theorem it holds k such maxima with probability c(l, k)/l!, where c
is the unsigned Stirling number of the first kind.  Hence

    P[B_n = k] = sum_{l < n} c(l, k)/(l + 2)!  +  c(n, k)/(n + 1)!,

and the last term, L = n, is the event that no old record survives.  As
n grows the last term vanishes, and since 1/(l + 2)! is the integral of
t**l (1 - t)/l! over [0, 1] and sum_l c(l, k) t**l/l! = (-log(1 - t))**k/k!,
the sum tends to the integral of s (-log s)**k/k! over [0, 1], which is
2**-(k+1).  So the deviation from the limit is

    dev_k = c(n, k)/(n + 1)!  -  sum_{l >= n} c(l, k)/(l + 2)!.

Write e_i(l) for the i-th elementary symmetric function of 1, 1/2, ...,
1/(l - 1), so that c(l, k) = (l - 1)! e_{k-1}(l) and c(l, k)/(l + 2)! =
e_{k-1}(l)/(l(l + 1)(l + 2)).  With A_l = 1/(2l(l + 1)) the cubic
telescopes, 1/(l(l + 1)(l + 2)) = A_l - A_{l+1}.  Summing by parts, with
e_{k-1}(l + 1) - e_{k-1}(l) = e_{k-2}(l)/l and a boundary term e_{k-1}(l) A_l
that vanishes as l grows, gives

    sum_{l >= n} c(l, k)/(l + 2)!
        = e_{k-1}(n)/(2n(n + 1)) + (1/2) sum_{l >= n} c(l, k - 1)/(l + 2)!.

In dev_k the sum at k - 1 is c(n, k - 1)/(n + 1)! - dev_{k-1}, which makes
dev_k = (e_{k-1} - e_{k-2})/(2n(n + 1)) + dev_{k-1}/2, where e_{-1} = 0
and dev_0 = 0 (P[B_n = 0] = 1/2).  Unrolling it and multiplying through by
2**(k+1) (n + 1)!, with (n - 1)! e_{j-1}(n) = c(n, j), leaves

    (n + 1)! 2**(k+1) P[B_n = k]
        = (n + 1)! + sum_{j=1}^{k} 2**j (c(n, j) - c(n, j - 1))
        = (n + 1)! + 2**k c(n, k) - sum_{j=1}^{k-1} 2**j c(n, j)

for 0 <= k <= n, so the law at n needs only the Stirling row c(n, 0..k).
The tests hold this route to the enumeration and to the paper's own sums
over survivor positions, which live with them in ``tests/paper_sums.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise

from .errors import CapacityError, checked_int

# Ceiling on n * n * (kmax + 1) for exact_pmf_b at kmax >= 1: the pass
# fills n * kmax cells, each an integer of O(n log n) bits.  Calls at the
# ceiling took 2.5-3.3 s (n = 70,710 at kmax = 1) and 8.4-10.3 s
# (n = 10**4 at kmax = 99) on a 2-CPU Xeon; kmax = 0 needs no pass.  At
# the default kmax = 8 the ceiling is n = 33,333: there the pass took
# 7.9 s, 1.9 s of it reducing the masses to lowest terms, the survivor
# tails 2.0 s more, and the whole ``exact`` command 9.3 s.
EXACT_MAX_WORK = 10**10


@dataclass
class Pmf:
    """A finite probability mass function over nonnegative counts.

    Every mass is a Fraction, so a full-support pmf sums to exactly 1.
    """

    n: int
    mass: dict[int, Fraction]

    def prob(self, k: int) -> Fraction:
        return self.mass.get(k, Fraction(0))

    def support(self) -> list[int]:
        return sorted(k for k, p in self.mass.items() if p)

    def total(self):
        return sum(self.mass.values())

    def mean(self):
        return sum(k * p for k, p in self.mass.items())


def prob_b0(n: int) -> Fraction:
    """Probability the final step breaks nothing: exactly 1/2 for every n.

    The last observation breaks no record iff it is below its predecessor,
    and those two orderings are equally likely by exchangeability.
    """
    checked_int("n", n, 1)
    return Fraction(1, 2)


def prob_b1(n: int) -> Fraction:
    """Full probability the final step breaks exactly one record.

    The broken record stood alone with probability 1/(n(n+1)): the last
    two observations are then the two largest, in increasing order.
    Otherwise the record at some index i survives beneath it, with
    probability 1/((n-i-1)(n-i)(n-i+1)), and those terms telescope to
    1/4 - 1/(2n(n+1)).  Together they give 1/4 + 1/(2n(n+1)), which is
    1/2 at n = 1, as it must be: the second observation either breaks the
    only record or nothing.
    """
    n = checked_int("n", n, 1)
    return Fraction(1, 4) + Fraction(1, 2 * n * (n + 1))


@dataclass
class BreakLaw(Pmf):
    """Exact law of the final break count with its lone part split out.

    Over the common denominator ``scale``, which is (n + 1)! after a pass
    (and 1 at kmax = 0, where no pass runs), ``heads[k]`` is
    scale * 2**(k+1) times P[B_n = k], and ``lone[k]`` is scale times the
    probability of breaking exactly k records with no old record
    surviving; after a pass that is c(n, k).
    """

    lone: tuple[int, ...] = ()
    heads: tuple[int, ...] = ()
    scale: int = 1

    def lone_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with none surviving."""
        if k >= len(self.lone):
            return Fraction(0)
        return Fraction(self.lone[k], self.scale)

    def tail_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with at least one survivor."""
        if k >= len(self.heads):
            return Fraction(0)
        return Fraction(self.heads[k] - (self.lone[k] << (k + 1)), self.scale << (k + 1))


def exact_pmf_b(n: int, kmax: int) -> BreakLaw:
    """Exact P[B_n = k] for k = 0..min(kmax, n) from one Stirling row.

    Carries c(l, 0..kmax) through c(l + 1, k) = l * c(l, k) + c(l, k - 1)
    up to l = n, then reads every mass off the closed form in the module
    docstring; kmax = 0 needs no pass, since P[B_n = 0] = 1/2.  Costs
    O(n * kmax) multiplications of a big integer by a small one; at
    kmax >= 1 it refuses with CapacityError, before any arithmetic, when
    n * n * (kmax + 1) exceeds ``EXACT_MAX_WORK``.
    """
    n, kmax = checked_int("n", n, 1), checked_int("kmax", kmax)
    top = min(kmax, n)
    if not top:
        return BreakLaw(n=n, mass={0: Fraction(1, 2)}, lone=(0,), heads=(1,))
    work = n * n * (top + 1)
    if work > EXACT_MAX_WORK:
        raise CapacityError(
            f"exact law for n={n}, kmax={top} needs n*n*(kmax+1) = {work}, "
            f"over the ceiling of {EXACT_MAX_WORK}"
        )
    stirling = [0, 1] + [0] * (top - 1)  # c(l, 0..top), from l = 1
    for l in range(1, n):
        for k in range(top, 0, -1):
            stirling[k] = l * stirling[k] + stirling[k - 1]
    scale = math.factorial(n + 1)
    # Summed over j <= k, the steps give (n + 1)! 2**(k+1) P[B_n = k] - (n + 1)!.
    steps = ((c - b) << k for k, (b, c) in enumerate(pairwise([0, *stirling])))
    heads = tuple(scale + d for d in accumulate(steps))
    mass = {k: Fraction(h, scale << (k + 1)) for k, h in enumerate(heads)}
    return BreakLaw(n=n, mass=mass, lone=tuple(stirling), heads=heads, scale=scale)


def geometric_limit(k: int) -> Fraction:
    """Limiting probability of breaking exactly k records: 2**-(k+1)."""
    return Fraction(1, 2 ** (checked_int("k", k) + 1))


def remainder_bound(n: int, k: int) -> float:
    """Upper bound on |P[break count = k] - 2**-(k+1)| for k >= 1.

    Equals (1 + log(n - 1))**(k - 1) / (2 n (n + 1)).  At k = 1 the
    deviation attains the bound exactly; for larger k the bound absorbs
    the harmonic factors picked up per extra coordinate.
    """
    n, k = checked_int("n", n, 2), checked_int("k", k, 1)
    return (1.0 + math.log(n - 1)) ** (k - 1) / (2.0 * n * (n + 1))


def _harmonic_split(a: int, b: int) -> tuple[int, int]:
    """(p, q) with p/q = 1/a + ... + 1/(b - 1) and q = lcm(a, ..., b - 1).

    Divide and conquer: each half is summed over its own lcm and the two
    are joined over the lcm of both, so no operand outgrows the final
    denominator.
    """
    if b - a == 1:
        return 1, a
    m = (a + b) // 2
    p1, q1 = _harmonic_split(a, m)
    p2, q2 = _harmonic_split(m, b)
    q = math.lcm(q1, q2)
    return p1 * (q // q1) + p2 * (q // q2), q


def expected_record_count(n: int) -> Fraction:
    """Exact mean number of current records after n + 1 observations.

    Observation i survives iff it is the largest of the last n - i + 1,
    so the mean is the harmonic number 1 + 1/2 + ... + 1/(n + 1), summed
    as one (p, q) pair by ``_harmonic_split`` and reduced once.  The
    denominator lcm(1, ..., n + 1) has about 1.44 * n bits and the top
    joins are quadratic in that size, so the cost still grows about as
    n * n: it refuses with CapacityError, before any arithmetic, when
    n * n exceeds ``EXACT_MAX_WORK`` (n = 10**5 takes about 0.5 s).
    """
    n = checked_int("n", n)
    if n * n > EXACT_MAX_WORK:
        raise CapacityError(
            f"exact mean record count for n={n} needs n*n = {n * n}, "
            f"over the ceiling of {EXACT_MAX_WORK}"
        )
    return Fraction(*_harmonic_split(1, n + 2))
