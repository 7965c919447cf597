"""Unit tests for the permutation-enumeration oracle.

The oracle walks every ordering directly from the definition, so its
output doubles as ground truth for the closed forms and the incremental
stack.  Frozen tables below were hand-checked at n = 2 and confirmed by
both independent routes before being written down.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from brokenrecords import (
    CapacityError,
    expected_record_count,
    oracle_joint,
    oracle_pmf_b,
    oracle_pmf_r,
    prob_b0,
    prob_b1,
    run_trajectory,
)
import brokenrecords.oracle as oracle
from brokenrecords.oracle import _enumerate
from paper_sums import joint_tail_prob, prob_b1_lastrecord, single_break_term

F = Fraction


class TestFrozenTables:
    def test_pmf_b_n1(self):
        pmf = oracle_pmf_b(1)
        assert pmf.mass == {0: F(1, 2), 1: F(1, 2)}

    def test_pmf_b_n2(self):
        pmf = oracle_pmf_b(2)
        assert pmf.mass == {0: F(1, 2), 1: F(1, 3), 2: F(1, 6)}

    def test_pmf_b_n3(self):
        pmf = oracle_pmf_b(3)
        assert pmf.mass == {
            0: F(1, 2),
            1: F(7, 24),
            2: F(1, 6),
            3: F(1, 24),
        }

    def test_pmf_b_n4(self):
        pmf = oracle_pmf_b(4)
        assert pmf.mass == {
            0: F(1, 2),
            1: F(11, 40),
            2: F(19, 120),
            3: F(7, 120),
            4: F(1, 120),
        }

    def test_joint_n2_full_table(self):
        # Hand enumeration of the six orderings of (X0, X1, X2).
        joint = oracle_joint(2)
        assert joint.mass == {
            (0, 1): F(1, 3),
            (0, 2): F(1, 6),
            (1, 1): F(1, 6),
            (1, 2): F(1, 6),
            (2, 2): F(1, 6),
        }

    def test_pmf_r_n2(self):
        pmf = oracle_pmf_r(2)
        assert pmf.mass == {1: F(1, 3), 2: F(1, 2), 3: F(1, 6)}

    def test_pmf_r_n0(self):
        pmf = oracle_pmf_r(0)
        assert pmf.mass == {1: F(1)}


class TestLaws:
    def test_totals(self):
        for n in range(1, 7):
            assert oracle_pmf_b(n).total() == 1
            assert oracle_pmf_r(n).total() == 1
            assert oracle_joint(n).total() == 1

    def test_joint_support_shape(self):
        for n in range(1, 7):
            for (b, r_prev), mass in oracle_joint(n).mass.items():
                assert mass > 0
                assert 1 <= r_prev <= n
                assert 0 <= b <= r_prev

    def test_marginals_agree(self):
        for n in range(1, 7):
            joint = oracle_joint(n)
            assert joint.marginal_b().mass == oracle_pmf_b(n).mass
            assert joint.marginal_r_prev().mass == oracle_pmf_r(n - 1).mass

    def test_mass_at_zero_is_half(self):
        for n in range(1, 7):
            assert oracle_pmf_b(n).prob(0) == prob_b0(n)

    def test_mean_break_count(self):
        # E[R] grows by 1 - E[B] each step, so E[B_n] = n/(n+1).
        for n in range(1, 7):
            assert oracle_pmf_b(n).mean() == F(n, n + 1)

    def test_mean_record_count_is_harmonic(self):
        for n in range(0, 7):
            assert oracle_pmf_r(n).mean() == expected_record_count(n)

    def test_record_count_support(self):
        for n in range(1, 7):
            support = oracle_pmf_r(n).support()
            assert support[0] == 1
            assert support[-1] == n + 1

    def test_tail_and_lone_split(self):
        # P[B = k] splits into survivor and no-survivor parts; the k = 1
        # no-survivor part is the final-observation-was-the-only-record
        # event with its own closed form.
        for n in range(2, 7):
            joint = oracle_joint(n)
            pmf = oracle_pmf_b(n)
            for k in range(1, n + 1):
                assert pmf.prob(k) == joint.tail_mass(k) + joint.lone_mass(k)
            assert joint.lone_mass(1) == prob_b1_lastrecord(n)
            assert joint.tail_mass(1) + joint.lone_mass(1) == prob_b1(n)

    def test_tail_matches_closed_form(self):
        for n in range(1, 7):
            joint = oracle_joint(n)
            for k in range(1, n):
                assert joint.tail_mass(k) == joint_tail_prob(n, k)


class TestSingleBreakProfile:
    """The survivor beneath a lone break, tallied one permutation at a time."""

    def test_matches_term_formula(self):
        for n in range(2, 8):
            profile = _reference_counts(n)[2]
            assert set(profile) == set(range(n - 1))
            for i, c in profile.items():
                assert F(c, math.factorial(n + 1)) == single_break_term(n, i)

    def test_sums_to_survivor_mass(self):
        for n in range(2, 8):
            profile = _reference_counts(n)[2]
            total = F(sum(profile.values()), math.factorial(n + 1))
            assert total == oracle_joint(n).tail_mass(1)


def _suffix_record_indices(vals: tuple[int, ...], m: int) -> list[int]:
    """Indices i <= m with vals[i] above everything after it, oldest first."""
    recs: list[int] = []
    mx = -1
    for i in range(m, -1, -1):
        if vals[i] > mx:
            recs.append(i)
            mx = vals[i]
    recs.reverse()
    return recs


def _reference_counts(n: int):
    """The oracle's tallies, one permutation at a time from the definition."""
    joint: dict[tuple[int, int], int] = {}
    r_now: dict[int, int] = {}
    b1_index: dict[int, int] = {}
    for perm in itertools.permutations(range(n + 1)):
        prev = _suffix_record_indices(perm, n - 1)
        b = sum(1 for i in prev if perm[i] < perm[n])
        r = len(_suffix_record_indices(perm, n))
        assert r == len(prev) + 1 - b, perm
        joint[b, len(prev)] = joint.get((b, len(prev)), 0) + 1
        r_now[r] = r_now.get(r, 0) + 1
        if b == 1 and len(prev) >= 2:
            b1_index[prev[-2]] = b1_index.get(prev[-2], 0) + 1
    return joint, r_now, b1_index


def _stirling_first_row(m: int) -> list[int]:
    """Unsigned Stirling numbers c(m, r) for r = 0..m."""
    row = [1]
    for j in range(m):
        # c(j + 1, r) = j * c(j, r) + c(j, r - 1)
        row = [j * same + below for same, below in zip(row + [0], [0] + row)]
    return row


class TestBlockwiseEnumeration:
    """The column-major scan against independent references.

    Up to n = 8 a plain per-permutation loop: every n <= 7 is one pass
    over the template, and n = 8 the first to place its largest value in
    each of 9 positions.  Up to n = 9, where the loop is slow, Rényi's
    record theorem, and at n = 8 the single-break terms, with the joint
    law covered by ``TestExactPmfB`` against ``exact_pmf_b``.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_reference_loop(self, n):
        joint, r_now, _ = _reference_counts(n)
        assert _enumerate(n) == joint
        total = math.factorial(n + 1)
        assert oracle_pmf_r(n).mass == {r: F(c, total) for r, c in r_now.items()}

    def test_record_counts_are_stirling_numbers(self):
        # R_n = r on exactly c(n + 1, r) of the (n + 1)! orderings.
        for n in range(10):
            row = _stirling_first_row(n + 1)
            total = math.factorial(n + 1)
            law = {r: F(c, total) for r, c in enumerate(row) if c}
            assert oracle_pmf_r(n).mass == law

    def test_survivor_index_n8_matches_term_formula(self):
        # The lone break over a survivor at each index 0..6 sums to the
        # enumerated survivor tail at k = 1.
        terms = sum(single_break_term(8, i) for i in range(7))
        assert terms == oracle_joint(8).tail_mass(1)

    def test_working_memory_is_one_block(self):
        # The template and a few rows of 8! values, whatever n is.
        for n in (8, 9):
            _enumerate.cache_clear()
            tracemalloc.start()
            try:
                _enumerate(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, n

    def test_conservation_is_checked_on_every_ordering(self, monkeypatch):
        # Miscount the records of one ordering in one pass: the check on
        # R_n = R_{n-1} + 1 - B_n must catch it and name the ordering.
        real = oracle._record_counts
        seen = []

        def miscount(rows, top, rec, out):
            real(rows, top, rec, out)
            seen.append(tuple(int(np.broadcast_to(row, out.shape)[17]) for row in rows))
            if len(seen) == 4:
                out[17] += 1

        monkeypatch.setattr(oracle, "_record_counts", miscount)
        _enumerate.cache_clear()
        try:
            with pytest.raises(AssertionError) as exc:
                _enumerate(8)
        finally:
            _enumerate.cache_clear()
        perm = seen[3]
        assert sorted(perm) == list(range(9))
        assert str(exc.value) == f"conservation violated in enumeration: perm={perm}"


class TestCapacity:
    """One cap, n <= 10, for every caller, with no option to move it."""

    def test_default_cap(self):
        assert oracle.MAX_N == 10
        with pytest.raises(CapacityError) as exc:
            oracle_pmf_b(11)
        assert "over the cap of n=10" in str(exc.value)

    def test_raised_cap_allows_more(self):
        # The old default stopped at n = 8.
        pmf = oracle_pmf_b(9)
        assert pmf.total() == 1

    def test_hard_ceiling(self):
        for fn in (oracle_joint, oracle_pmf_r):
            with pytest.raises(CapacityError):
                fn(11)
        with pytest.raises(TypeError):
            oracle_joint(12, max_n=20)

    def test_domain(self):
        with pytest.raises(ValueError):
            oracle_pmf_b(0)
        with pytest.raises(ValueError):
            oracle_joint(0)
        with pytest.raises(ValueError):
            oracle_pmf_r(-1)


class TestCrossEnumeration:
    """Replay every permutation through the incremental stack.

    The oracle's own tally uses an independent backward scan; this pins
    the two implementations to each other on the full space for small n.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stack_replay_matches_oracle(self, n):
        b_counts: dict[int, int] = {}
        r_counts: dict[int, int] = {}
        for perm in itertools.permutations(range(n + 1)):
            stats = run_trajectory([float(v) for v in perm])
            b = stats.b_path[-1]
            r = stats.r_path[-1]
            b_counts[b] = b_counts.get(b, 0) + 1
            r_counts[r] = r_counts.get(r, 0) + 1
        total = math.factorial(n + 1)
        assert {
            k: F(c, total) for k, c in b_counts.items()
        } == oracle_pmf_b(n).mass
        assert {
            k: F(c, total) for k, c in r_counts.items()
        } == oracle_pmf_r(n).mass

    def test_float_relabel_spot_check(self):
        # Rank patterns, not magnitudes, drive the counts: push each
        # permutation of 0..4 through an arbitrary increasing relabeling.
        base = [0.11, 0.23, 0.47, 0.62, 0.98]
        for perm in itertools.permutations(range(5)):
            ints = run_trajectory([float(v) for v in perm])
            floats = run_trajectory([base[v] for v in perm])
            assert ints.b_path == floats.b_path
            assert ints.r_path == floats.r_path
