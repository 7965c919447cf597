"""Acceptance gate: the ten headline guarantees, one test each.

Each test carries ``@pytest.mark.acceptance(num, title)`` and produces a
single PASS/FAIL line in the terminal summary (see conftest).  Tolerances
and sizes are stated inline; every randomized check runs at a fixed seed
whose margin sits several standard errors inside its tolerance.
"""

from fractions import Fraction

import numpy as np
import pytest

from brokenrecords import (
    SimConfig,
    oracle_joint,
    oracle_pmf_b,
    oracle_pmf_r,
    prob_b0,
    records_by_scan,
    run_trajectory,
    simulate_b,
    simulate_r,
    simulate_trajectory_audit,
)
from paper_sums import (
    joint_tail_prob,
    joint_tail_prob_fast,
    prob_b1_lastrecord,
    telescoping_sum,
)

F = Fraction


@pytest.mark.acceptance(1, "P[B_n = 0] = 1/2 exactly, n = 1..8")
def test_criterion_1_half_mass_at_zero():
    for n in range(1, 9):
        assert prob_b0(n) == F(1, 2)
        assert oracle_pmf_b(n).prob(0) == F(1, 2)


@pytest.mark.acceptance(2, "enumerated pmfs at n = 2, 3 match ground truth")
def test_criterion_2_oracle_tables():
    pmf2 = oracle_pmf_b(2)
    assert pmf2.mass == {0: F(1, 2), 1: F(1, 3), 2: F(1, 6)}
    pmf3 = oracle_pmf_b(3)
    assert pmf3.mass == {0: F(1, 2), 1: F(7, 24), 2: F(1, 6), 3: F(1, 24)}
    assert pmf2.total() == 1
    assert pmf3.total() == 1


@pytest.mark.acceptance(3, "both tail routes equal the enumerated tail mass")
def test_criterion_3_tail_formula_equivalence():
    for n in range(2, 9):
        joint = oracle_joint(n)
        for k in range(1, min(4, n - 1) + 1):
            reference = joint_tail_prob(n, k)
            fast = joint_tail_prob_fast(n, k)
            enumerated = joint.tail_mass(k)
            assert reference == fast == enumerated


@pytest.mark.acceptance(4, "k = 1 closed form; printed variant fails at n = 1")
def test_criterion_4_single_break_closed_form():
    for n in range(2, 9):
        assembled = prob_b1_lastrecord(n) + telescoping_sum(n - 1)
        assert assembled == oracle_pmf_b(n).prob(1)
        assert assembled == F(1, 4) + F(1, 2 * n * (n + 1))
    # The tempting variant 1/4 + 2/(n(n+1)) is not a probability at n = 1
    # and is therefore rejected, not adopted.
    variant = F(1, 4) + F(2, 1 * 2)
    assert variant == F(5, 4)
    assert variant > 1


@pytest.mark.acceptance(5, "telescoping closed form equals literal sum, m <= 10^4")
def test_criterion_5_telescoping_identity():
    running = F(0)
    for m in range(1, 10**4 + 1):
        running += F(1, m * (m + 1) * (m + 2))
        assert telescoping_sum(m) == running


@pytest.mark.acceptance(6, "n = 500, 10^6 trials: within 0.003 of 2^-(k+1)")
def test_criterion_6_limit_law_at_desk_scale():
    pmf = simulate_b(SimConfig(n=500, trials=10**6, seed=20260821))
    for k in range(6):
        assert abs(pmf.frequency(k) - 2.0 ** -(k + 1)) <= 0.003


@pytest.mark.acceptance(7, "record-count mean: sampled near 25/12, exact at 25/12")
def test_criterion_7_record_count_mean():
    assert oracle_pmf_r(3).mean() == F(25, 12)
    pmf = simulate_r(SimConfig(n=3, trials=10**6, seed=707))
    assert abs(pmf.mean() - 25 / 12) < 0.005


@pytest.mark.acceptance(8, "10^3 audited trajectories at n = 100: no violations")
def test_criterion_8_conservation_sweep():
    report = simulate_trajectory_audit(SimConfig(n=100, trials=10**3, seed=55))
    assert report.trials == 10**3
    assert report.steps_checked == 10**3 * 100


@pytest.mark.acceptance(9, "identical counts across repeats and worker counts")
def test_criterion_9_determinism():
    runs = [
        simulate_b(SimConfig(n=200, trials=2 * 10**5, seed=1234, workers=w))
        for w in (1, 1, 2, 3)
    ]
    for other in runs[1:]:
        assert other.counts == runs[0].counts
        assert other.overflow == runs[0].overflow


@pytest.mark.acceptance(10, "scan equals incremental stack on 10^4 random inputs")
def test_criterion_10_cross_implementation():
    rng = np.random.default_rng(2468)
    for _ in range(10**4):
        length = int(rng.integers(1, 201))
        vals = rng.random(length).tolist()
        assert run_trajectory(vals).final_records == records_by_scan(vals)
