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

The row is c(n, k) = [z**(k-1)] (z + 1)(z + 2)...(z + n - 1), and the pass
builds that product truncated to degree kmax - 1 as a product tree
(binary splitting; Bernstein, "Fast multiplication and its
applications", 2008): a long span of factors is split in halves and the
truncated halves are multiplied, so the big integers meet in a few
balanced products instead of n small-by-big ones.

The survivor tails need no second pass.  The closed form at k less the
same at k - 1, divided by 2**k (n + 1)!, is

    2 P[B_n = k] - P[B_n = k - 1] = (c(n, k) - c(n, k - 1))/(n + 1)!.

Summed over j = 1..k, with c(n, 0) = 0 and P[B_n = 0] = 1/2, the left
side is P[B_n = k] + sum_{j=1}^{k} P[B_n = j] - 1/2 and the right side
c(n, k)/(n + 1)!, the no-survivor part of P[B_n = k].  So

    P[B_n = k, an old record survives] = P[B_n = k] - c(n, k)/(n + 1)!
                                       = 1/2 - sum_{j=1}^{k} P[B_n = j]
                                       = P[B_n > k],

and the pass reads every survivor tail off the masses it has already
reduced, with k subtractions.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise

from .errors import CapacityError, checked_int

# Ceiling on n * n * (kmax + 1) for exact_pmf_b at kmax >= 1: the pass
# builds kmax integers of O(n log n) bits from n - 1 factors.  Calls at the
# ceiling took 0.23-0.32 s (n = 70,710 at kmax = 1) and 6.2-7.6 s
# (n = 10**4 at kmax = 99, where the row is one linear loop) on a 2-CPU
# Xeon; kmax = 0 needs no pass.  At the default kmax = 8 the ceiling is
# n = 33,333: there the call took 2.8-3.0 s, 1.1 s of it the row and
# 1.5 s reducing the masses to lowest terms, and the whole ``exact``
# command 3.2-4.0 s.
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
    surviving; after a pass that is c(n, k).  ``tails[k]`` is the
    probability of breaking exactly k records with at least one old record
    surviving, which equals P[B_n > k] (see the module docstring).
    """

    lone: tuple[int, ...] = ()
    heads: tuple[int, ...] = ()
    scale: int = 1
    tails: tuple[Fraction, ...] = ()

    def lone_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with none surviving."""
        if k >= len(self.lone):
            return Fraction(0)
        return Fraction(self.lone[k], self.scale)

    def tail_mass(self, k: int) -> Fraction:
        """Mass of breaking exactly k records with at least one survivor."""
        return self.tails[k] if k < len(self.tails) else Fraction(0)


def exact_pmf_b(n: int, kmax: int) -> BreakLaw:
    """Exact P[B_n = k] for k = 0..min(kmax, n) from one Stirling row.

    Builds the row c(n, 0..kmax) with ``_rising``, reads every mass off
    the closed form in the module docstring and every survivor tail off
    the masses; kmax = 0 needs no pass, since P[B_n = 0] = 1/2.  At
    kmax >= 1 it refuses with CapacityError, before any arithmetic, when
    n * n * (kmax + 1) exceeds ``EXACT_MAX_WORK``.
    """
    n, kmax = checked_int("n", n, 1), checked_int("kmax", kmax)
    top = min(kmax, n)
    if not top:
        half = Fraction(1, 2)
        return BreakLaw(n=n, mass={0: half}, lone=(0,), heads=(1,), tails=(half,))
    work = n * n * (top + 1)
    if work > EXACT_MAX_WORK:
        raise CapacityError(
            f"exact law for n={n}, kmax={top} needs n*n*(kmax+1) = {work}, "
            f"over the ceiling of {EXACT_MAX_WORK}"
        )
    # c(n, k) is the coefficient of z**(k-1) in (z + 1)(z + 2)...(z + n - 1).
    stirling = [0, *_rising(1, n, top)]
    scale = math.factorial(n + 1)
    # Summed over j <= k, the steps give (n + 1)! 2**(k+1) P[B_n = k] - (n + 1)!.
    steps = ((c - b) << k for k, (b, c) in enumerate(pairwise([0, *stirling])))
    heads = tuple(scale + d for d in accumulate(steps))
    mass = {k: Fraction(h, scale << (k + 1)) for k, h in enumerate(heads)}
    # P[B_n > k] = P[B_n > k - 1] - P[B_n = k], from P[B_n > 0] = 1/2.
    tails = tuple(accumulate(map(mass.get, range(1, top + 1)), operator.sub, initial=mass[0]))
    return BreakLaw(
        n=n, mass=mass, lone=tuple(stirling), heads=heads, scale=scale, tails=tails
    )


def _rising(a: int, b: int, width: int) -> list[int]:
    """Coefficients of z**0..z**(width-1) in (z + a)(z + a + 1)...(z + b - 1).

    A span of at most max(64, width**3) factors is multiplied out one
    factor at a time; a longer one is split in halves, whose truncated
    products are multiplied together.  A join costs width * (width + 1)/2 products of
    big integers, so below that span the one-at-a-time loop, which
    multiplies by small integers only, is faster.
    """
    if b - a <= max(64, width**3):
        row = [1] + [0] * (width - 1)
        for l in range(a, b):
            for k in range(width - 1, 0, -1):
                row[k] = l * row[k] + row[k - 1]
            row[0] *= l
        return row
    m = (a + b) // 2
    low, high = _rising(a, m, width), _rising(m, b, width)
    return [sum(low[i] * high[k - i] for i in range(k + 1)) for k in range(width)]


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
