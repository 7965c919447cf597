"""Unit tests for the exact closed forms and the full law, and for the
paper's summed probabilities that the tests keep in paper_sums.

Derived reference values here were frozen only after agreeing with an
independent permutation enumeration (see test_oracle for the cross-checks
that tie the two routes together).
"""

import itertools
import json
import math
from fractions import Fraction

import pytest

from brokenrecords import exact
from brokenrecords import (
    CapacityError,
    Pmf,
    exact_pmf_b,
    expected_record_count,
    geometric_limit,
    oracle_joint,
    oracle_pmf_b,
    prob_b0,
    prob_b1,
    remainder_bound,
)
from brokenrecords.cli import main
from paper_sums import (
    joint_tail_prob,
    joint_tail_prob_fast,
    p_term,
    prob_b1_lastrecord,
    single_break_term,
    telescoping_sum,
)

F = Fraction


def _reference_exact_pmf_b(n, kmax):
    """The two-accumulator pass, kept as a check on the closed form.

    Carries the Stirling row c(l, 0..kmax) and T(l, 0..kmax), where
    T(l) = (l + 1)! * sum_{j < l} c(j, k)/(j + 2)!, through
    T(l + 1) = (l + 2) * T(l) + c(l, k); then (n + 1)! * P[B_n = k] is
    T(n) + c(n, k).  Returns the masses and the row c(n, 0..kmax).
    """
    top = min(kmax, n)
    stirling = [1] + [0] * top
    acc = [0] * (top + 1)
    for l in range(n):
        for k in range(top + 1):
            acc[k] = (l + 2) * acc[k] + stirling[k]
        for k in range(top, 0, -1):
            stirling[k] = l * stirling[k] + stirling[k - 1]
        stirling[0] *= l
    scale = math.factorial(n + 1)
    return {k: F(a + c, scale) for k, (a, c) in enumerate(zip(acc, stirling))}, tuple(stirling)


def _linear_stirling_row(n, top):
    """c(n, 0..top) by one factor at a time, the pass before the product tree."""
    stirling = [0, 1] + [0] * (top - 1)  # c(l, 0..top), from l = 1
    for l in range(1, n):
        for k in range(top, 0, -1):
            stirling[k] = l * stirling[k] + stirling[k - 1]
    return tuple(stirling)


class TestTelescoping:
    def test_small_values(self):
        assert telescoping_sum(1) == F(1, 6)
        assert telescoping_sum(2) == F(5, 24)

    def test_closed_form_equals_literal_sum(self):
        for m in range(1, 120):
            literal = sum(
                F(1, d * (d + 1) * (d + 2)) for d in range(1, m + 1)
            )
            assert telescoping_sum(m) == literal

    def test_closed_form_shape(self):
        m = 10**6
        v = telescoping_sum(m)
        assert v == F(1, 4) - F(1, 2 * (m + 1) * (m + 2))
        assert v < F(1, 4)
        assert F(1, 4) - v < F(1, 10**12)


class TestSingleBreak:
    def test_prob_b0(self):
        assert prob_b0(1) == F(1, 2)
        assert prob_b0(100) == F(1, 2)
        with pytest.raises(ValueError):
            prob_b0(0)

    def test_lastrecord(self):
        assert prob_b1_lastrecord(1) == F(1, 2)
        assert prob_b1_lastrecord(2) == F(1, 6)
        assert prob_b1_lastrecord(10) == F(1, 110)

    def test_term_values(self):
        assert single_break_term(2, 0) == F(1, 6)
        assert single_break_term(10, 5) == F(1, 4 * 5 * 6)

    def test_term_sum_identity(self):
        for n in range(2, 31):
            total = sum(single_break_term(n, i) for i in range(n - 1))
            assert total == telescoping_sum(n - 1)

    def test_prob_b1_decomposition(self):
        assert prob_b1(1) == F(1, 2)
        for n in range(2, 51):
            assert prob_b1(n) == prob_b1_lastrecord(n) + telescoping_sum(
                n - 1
            )
            assert prob_b1(n) == F(1, 4) + F(1, 2 * n * (n + 1))

    def test_rejected_variant_is_not_a_probability(self):
        # A tempting mis-simplification of the n-dependent correction gives
        # 1/4 + 2/(n(n+1)), which already exceeds 1 at n=1 and disagrees
        # with enumeration everywhere; the implemented form does neither.
        bad = lambda n: F(1, 4) + F(2, n * (n + 1))
        assert bad(1) == F(5, 4)
        assert bad(1) > 1
        assert prob_b1(1) == F(1, 2)
        assert bad(2) != prob_b1(2)


class TestPTerm:
    def test_single_index_matches_single_break(self):
        for n in range(2, 13):
            for i in range(n - 1):
                assert p_term(n - 1, (i,)) == single_break_term(n, i)

    def test_pair_example(self):
        assert p_term(2, (1, 0)) == F(1, 24)

    def test_triple_example(self):
        assert p_term(3, (2, 1, 0)) == F(1, 120)

    def test_pair_by_brute_force(self):
        # P[X0 > X1 > X2 and X3 > X0] over orderings of four distinct
        # values: exactly one of the 24 linear orders satisfies it.
        hits = sum(
            1
            for p in itertools.permutations(range(4))
            if p[0] > p[1] > p[2] and p[3] > p[0]
        )
        assert F(hits, 24) == p_term(2, (1, 0))

    def test_triple_by_brute_force(self):
        hits = sum(
            1
            for p in itertools.permutations(range(5))
            if p[0] > p[1] > p[2] > p[3] and p[2] < p[4] < p[1]
        )
        assert F(hits, 120) == p_term(3, (2, 1, 0))


class TestJointTail:
    def test_examples(self):
        assert joint_tail_prob(2, 1) == F(1, 6)
        assert joint_tail_prob(3, 1) == F(5, 24)
        assert joint_tail_prob(3, 2) == F(1, 24)
        assert joint_tail_prob(3, 1) == telescoping_sum(2)

    def test_k_above_support_is_zero(self):
        assert joint_tail_prob(5, 5) == 0
        assert joint_tail_prob_fast(5, 5) == 0
        assert joint_tail_prob(3, 17) == 0

    def test_routes_agree(self):
        for n in range(1, 13):
            for k in range(1, n):
                assert joint_tail_prob(n, k) == joint_tail_prob_fast(n, k)

    def test_fast_medium_n(self):
        # The reference sum is still affordable at n=50, k=3 (18424 terms).
        assert joint_tail_prob_fast(50, 3) == joint_tail_prob(50, 3)

    def test_fast_has_no_term_cap(self):
        v = joint_tail_prob_fast(300, 4)
        assert 0 < v < 1

    def test_tail_sequence_decreasing_in_k(self):
        n = 40
        tails = [joint_tail_prob_fast(n, k) for k in range(1, 8)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert all(0 < t < 1 for t in tails)


class TestExactPmfB:
    def test_equals_enumeration(self):
        for n in range(1, 9):
            law = exact_pmf_b(n, n)
            pmf = oracle_pmf_b(n)
            assert law.support() == pmf.support()
            for k in range(n + 1):
                assert law.prob(k) == pmf.prob(k)

    def test_lone_part_equals_enumeration(self):
        for n in range(1, 9):
            law = exact_pmf_b(n, n)
            joint = oracle_joint(n)
            for k in range(n + 1):
                assert F(law.lone[k], math.factorial(n + 1)) == joint.lone_mass(k)
                assert law.lone_mass(k) == joint.lone_mass(k)

    def test_tails_equal_survivor_routes(self):
        for n in (50, 300):
            law = exact_pmf_b(n, 6)
            for k in range(1, 7):
                assert law.tail_mass(k) == joint_tail_prob_fast(n, k)
        assert exact_pmf_b(50, 3).tail_mass(3) == joint_tail_prob(50, 3)

    def test_survivor_tail_is_the_upper_tail(self):
        # P[B_n = k, a record survives] = P[B_n > k], on the enumeration
        # alone, and the pass's tails equal it at every k.
        for n in range(1, 10):
            joint = oracle_joint(n)
            pmf = joint.marginal_b()
            law = exact_pmf_b(n, n)
            for k in range(n + 1):
                upper = F(1, 2) - sum(pmf.prob(j) for j in range(1, k + 1))
                assert joint.tail_mass(k) == upper, (n, k)
                assert law.tail_mass(k) == upper, (n, k)

    def test_full_law_sums_to_one(self):
        for n in (1, 2, 9, 60, 250):
            law = exact_pmf_b(n, n)
            assert law.total() == 1
            assert law.support() == list(range(n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50, 300, 1000])
    def test_mean_is_n_over_n_plus_one(self, n):
        # R_n = R_{n-1} + 1 - B_n with E[R_n] = H_{n+1} gives E[B_n] =
        # n/(n+1): a check on every mass of the law, far past n = 8.
        assert exact_pmf_b(n, n).mean() == F(n, n + 1)

    def test_closed_forms_at_n2000(self):
        law = exact_pmf_b(2000, 1)
        assert law.prob(0) == F(1, 2)
        assert law.prob(1) == prob_b1(2000)

    def test_kmax_clipped_to_n(self):
        law = exact_pmf_b(3, 9)
        assert sorted(law.mass) == [0, 1, 2, 3]
        assert law.prob(7) == 0
        assert law.lone_mass(7) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_pmf_b(0, 2)
        with pytest.raises(ValueError):
            exact_pmf_b(5, -1)

    @pytest.mark.parametrize(
        "ns",
        [range(1, 101), range(101, 301), range(301, 401), (512, 1000), (2000,), (5000,)],
        ids=["1-100", "101-300", "301-400", "512-1000", "2000", "5000"],
    )
    def test_equals_two_accumulator_reference(self, ns):
        for n in ns:
            for kmax in (0, 1, 3, 8, 12):
                law = exact_pmf_b(n, kmax)
                assert (law.mass, law.lone) == _reference_exact_pmf_b(n, kmax), (n, kmax)

    @pytest.mark.parametrize("kmax", [1, 2, 3, 8])
    def test_product_tree_equals_reference_around_a_leaf(self, kmax):
        # The row multiplies n - 1 factors; a span of up to leaf of them
        # is one linear loop, and 2 * leaf of them is two leaves and a join.
        leaf = max(64, kmax**3)
        for n in (leaf - 1, leaf, leaf + 1, 2 * leaf + 1):
            law = exact_pmf_b(n, kmax)
            assert (law.mass, law.lone) == _reference_exact_pmf_b(n, kmax), (n, kmax)

    @pytest.mark.parametrize("n, kmax", [(3000, 8), (10**4, 3)])
    def test_product_tree_equals_linear_pass(self, n, kmax):
        assert exact_pmf_b(n, kmax).lone == _linear_stirling_row(n, kmax)

    def test_full_support_equals_reference(self):
        # At kmax = n the closed form cancels most: at k = n its terms are
        # as large as (n + 1)! and cancel down to 2**(n+1).
        for n in range(1, 61):
            law = exact_pmf_b(n, n)
            assert (law.mass, law.lone) == _reference_exact_pmf_b(n, n), n

    def test_capacity_ceiling(self, monkeypatch, capsys):
        # kmax = 0 sits on the ceiling at n = 10**5 and needs no big
        # integer at all.
        with monkeypatch.context() as m:
            m.setattr(exact.math, "factorial", None)
            law = exact_pmf_b(10**5, 0)
        assert law.mass == {0: F(1, 2)}
        assert law.lone == (0,)
        # Refused from the sizes alone, before any arithmetic.
        with pytest.raises(CapacityError) as exc:
            exact_pmf_b(10**9, 8)
        assert "ceiling" in str(exc.value)
        with pytest.raises(CapacityError):
            exact_pmf_b(10**4, 10**4)
        # The report keeps the k <= 1 closed forms there, and no tails.
        assert main(["exact", "--n", "100000", "--kmax", "1", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["exact_tail"] for r in rows] == [None, None]

    def test_kmax_0_is_never_refused(self, capsys):
        # P[B_n = 0] = 1/2 needs no pass, so the ceiling does not apply.
        assert exact_pmf_b(10**9, 0).mass == {0: F(1, 2)}
        assert main(["exact", "--n", "200000", "--kmax", "0"]) == 0
        assert "1/2" in capsys.readouterr().out

    def test_tail_is_full_mass_less_lone_mass(self):
        # Each survivor tail, read off the masses as P[B_n > k], is the
        # full mass less the lone mass over the scale (n + 1)!.
        for n, kmax in ((1, 1), (7, 7), (300, 6)):
            law = exact_pmf_b(n, kmax)
            assert law.scale == math.factorial(n + 1)
            for k in range(kmax + 2):
                assert law.tail_mass(k) == law.prob(k) - law.lone_mass(k), (n, k)
        law = exact_pmf_b(5, 0)
        assert (law.tail_mass(0), law.tail_mass(1), law.lone_mass(0)) == (F(1, 2), 0, 0)


class TestLimitAndBound:
    def test_geometric_limit(self):
        assert geometric_limit(0) == F(1, 2)
        assert geometric_limit(3) == F(1, 16)
        total = sum(geometric_limit(k) for k in range(40))
        assert 1 - total == F(1, 2**40)
        with pytest.raises(ValueError):
            geometric_limit(-1)

    def test_bound_values(self):
        assert remainder_bound(2, 2) == 1 / 12
        assert remainder_bound(25, 2) == (1 + math.log(24)) / 1300
        assert abs(remainder_bound(25, 2) - 3.2139e-3) < 1e-7

    def test_bound_domain(self):
        with pytest.raises(ValueError):
            remainder_bound(1, 2)
        with pytest.raises(ValueError):
            remainder_bound(10, 0)

    def test_bound_decreasing_over_decades(self):
        for k in (2, 3):
            vals = [remainder_bound(10**e, k) for e in range(1, 7)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_k1_deviation_attains_bound_exactly(self):
        # |P[B_n = 1] - 1/4| = 1/(2n(n+1)) is the k=1 bound verbatim, so
        # the float conversions must agree bit for bit.
        for n in (2, 5, 25, 400):
            dev = abs(float(prob_b1(n) - F(1, 4)))
            assert dev == remainder_bound(n, 1)

    def test_bound_dominates_exact_deviation(self):
        # Against the exact law from n = 2 to 400 and at three larger n,
        # for every k <= 8; at k = 1 the bound is met with equality.
        for n in [*range(2, 401), 512, 1000, 2000]:
            law = exact_pmf_b(n, 8)
            assert law.prob(0) == geometric_limit(0)
            for k in range(1, min(8, n) + 1):
                dev = abs(float(law.prob(k) - geometric_limit(k)))
                if k == 1:
                    assert dev == remainder_bound(n, k)
                else:
                    assert dev <= remainder_bound(n, k), (n, k)


class TestPmfContainer:
    def test_prob_and_total(self):
        pmf = Pmf(n=2, mass={0: F(1, 2), 1: F(1, 3), 2: F(1, 6)})
        assert pmf.total() == 1
        assert pmf.prob(1) == F(1, 3)
        assert pmf.prob(9) == 0

    def test_mean(self):
        pmf = Pmf(n=2, mass={0: F(1, 2), 1: F(1, 3), 2: F(1, 6)})
        assert pmf.mean() == F(2, 3)

    def test_support_sorted(self):
        pmf = Pmf(n=3, mass={2: F(1, 2), 0: F(1, 2)})
        assert pmf.support() == [0, 2]


class TestExpectedRecords:
    def test_values(self):
        assert expected_record_count(0) == 1
        assert expected_record_count(1) == F(3, 2)
        assert expected_record_count(3) == F(25, 12)

    def test_harmonic_identity(self):
        for n in range(0, 30):
            h = sum(F(1, j) for j in range(1, n + 2))
            assert expected_record_count(n) == h

    def test_split_sum_equals_plain_sum(self):
        plain = F(0)
        for n in range(0, 301):
            plain += F(1, n + 1)
            assert expected_record_count(n) == plain
        n = 10**4
        assert expected_record_count(n) == sum(
            (F(1, j) for j in range(1, n + 2)), F(0)
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_record_count(-1)

    def test_quadratic_sum_refused_over_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(exact, "EXACT_MAX_WORK", 99)
        assert expected_record_count(9) == sum(F(1, j) for j in range(1, 11))
        with pytest.raises(CapacityError) as exc:
            expected_record_count(10)
        assert "n*n = 100" in str(exc.value)
