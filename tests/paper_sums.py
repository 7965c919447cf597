"""The paper's literal sums, kept as references for the tests.

The paper proves P[B_n = k] -> 2**-(k+1) through the probability that the
final step breaks exactly k records while an older one survives, summed
over decreasing index tuples, and for k = 1 through a telescoping sum.
The package reads every mass off one Stirling row (``exact_pmf_b``), and
every survivor tail off the masses; these sums are the second route the
tests hold it to.  ``linear_stirling_row`` builds that row one factor at
a time, the tests' reference for the package's product tree and for the
no-survivor part c(n, k)/(n + 1)!.  None of them checks its arguments:
callers pass n >= 1, k >= 1, top >= 1 and strictly decreasing
nonnegative indices below the break time.
"""

from fractions import Fraction
from itertools import combinations


def _reciprocal_cubic(d):
    return Fraction(1, d * (d + 1) * (d + 2))


def telescoping_sum(m):
    """Sum of 1/(i(i+1)(i+2)) over i = 1..m: equals 1/4 - 1/(2(m+1)(m+2)).

    The closed form comes from telescoping the partial-fraction split
    1/(i(i+1)(i+2)) = (1/2)(1/(i(i+1)) - 1/((i+1)(i+2))).
    """
    return Fraction(1, 4) - Fraction(1, 2 * (m + 1) * (m + 2))


def prob_b1_lastrecord(n):
    """Probability the final step breaks one record that stood alone.

    The sole record is then the previous observation, so the last two
    observations are the two largest of all n + 1 and arrive in increasing
    order: probability 1/(n(n+1)).
    """
    return Fraction(1, n * (n + 1))


def single_break_term(n, i):
    """Probability the final step breaks one record while the record at
    index i, 0 <= i <= n - 2, survives directly beneath it:
    1/((n-i-1)(n-i)(n-i+1)).
    """
    return _reciprocal_cubic(n - i - 1)


def p_term(i0, idx):
    """Weight of one decreasing index tuple in the joint tail sum.

    For i0 > i1 > ... > ik >= 0 with idx = (i1, ..., ik), the term is
    prod_{p=1}^{k-1} 1/(i0 - i_p) times 1/((i0 - i_k)(i0 - i_k + 1)(i0 - i_k + 2)).
    It is the probability that the newest k + 1 current records sit at
    those indices and the next observation breaks the newest k of them.
    """
    term = _reciprocal_cubic(i0 - idx[-1])
    for i in idx[:-1]:
        term /= i0 - i
    return term


def joint_tail_prob(n, k):
    """Probability the final step breaks exactly k records and at least one
    old record survives, by literal summation.

    Sums ``p_term`` over every strictly decreasing k-tuple drawn from
    {0, ..., n - 2}, which is binomial(n - 1, k) terms, so 0 when k
    exceeds n - 1 (no room for a survivor).
    """
    total = Fraction(0)
    for combo in combinations(range(n - 1), k):
        total += p_term(n - 1, combo[::-1])
    return total


def joint_tail_prob_fast(n, k):
    """Same joint probability as ``joint_tail_prob`` in O(n * k) operations.

    Collapses the sum over decreasing tuples one coordinate at a time:
    the innermost layer is a running prefix sum of the cubic terms, and
    each outer layer is a prefix sum of the previous layer weighted by
    1/(i0 - i).  Tuples without room for the remaining coordinates
    contribute zero automatically.
    """
    i0 = n - 1
    layer = [Fraction(0)] * (i0 + 1)
    acc = Fraction(0)
    for x in range(1, i0 + 1):
        acc += _reciprocal_cubic(i0 - (x - 1))
        layer[x] = acc
    for _ in range(k - 1):
        nxt = [Fraction(0)] * (i0 + 1)
        acc = Fraction(0)
        for x in range(1, i0 + 1):
            prev = layer[x - 1]
            if prev:
                acc += prev / (i0 - (x - 1))
            nxt[x] = acc
        layer = nxt
    return layer[i0]


def linear_stirling_row(n, top):
    """c(n, 0..top) by one factor at a time, the pass before the product tree.

    c(n, k) counts the permutations of n values with k records, which is
    (n + 1)! times the probability that the final step breaks all k of
    its records and none older survives.
    """
    stirling = [0, 1] + [0] * (top - 1)  # c(l, 0..top), from l = 1
    for l in range(1, n):
        for k in range(top, 0, -1):
            stirling[k] = l * stirling[k] + stirling[k - 1]
    return tuple(stirling)
