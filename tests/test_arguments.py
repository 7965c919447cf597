"""The public entry points against count arguments outside their domain.

Every count argument is an integer.  A float or a string is refused with
UsageError naming the argument, before any work, and a numpy integer is
taken as the Python int of the same value, so no fixed-width product
wraps around.
"""
from fractions import Fraction as F

import numpy as np
import pytest

from brokenrecords import (
    CapacityError,
    SimConfig,
    UsageError,
    exact_pmf_b,
    expected_record_count,
    geometric_limit,
    oracle_joint,
    oracle_pmf_r,
    prob_b0,
    prob_b1,
    remainder_bound,
    simulate_b_checkpoints,
    trial_values,
)
from brokenrecords.reports import chi2_sf, converge_table
from test_montecarlo import _within

CONFIG = SimConfig(n=8, trials=10, seed=1, workers=1)

# (entry point, its arguments with one bad value, the name of that argument)
NON_INTEGERS = [
    (prob_b0, (1.5,), "n"),
    (prob_b1, ("3",), "n"),
    (exact_pmf_b, (8.0, 2), "n"),
    (exact_pmf_b, (8, 2.0), "kmax"),
    (geometric_limit, (1.5,), "k"),
    (remainder_bound, (10.5, 2), "n"),
    (remainder_bound, (10, "2"), "k"),
    (expected_record_count, (3.0,), "n"),
    (oracle_joint, (5.0,), "n"),
    (oracle_pmf_r, ("5",), "n"),
    (trial_values, (1.5, 8, 0, 4), "seed"),
    (trial_values, (1, 8.0, 0, 4), "n"),
    (trial_values, (1, 8, 0.0, 4), "t0"),
    (trial_values, (1, 8, 0, 4.0), "t1"),
    (simulate_b_checkpoints, (CONFIG, (2.5, 8)), "checkpoints"),
    (converge_table, ([2.5], 1, 0, 0), "every n"),
    (converge_table, ([20], 2.5, 0, 1), "kmax"),
    (converge_table, ([4], 1, 1.5, 0), "trials"),
    (chi2_sf, (3.0, 2.0), "dof"),
]


@pytest.mark.parametrize(
    "case", NON_INTEGERS, ids=[f"{fn.__name__}-{name}" for fn, _, name in NON_INTEGERS]
)
def test_a_non_integer_is_refused_by_name(case):
    fn, args, name = case
    with pytest.raises(UsageError, match=f"^{name} must be an integer, got "):
        fn(*args)


def test_a_negative_first_trial_is_refused():
    with pytest.raises(UsageError, match="^t0 must be nonnegative, got -3$"):
        trial_values(1, 8, -3, 2)


def test_a_numpy_n_gives_the_python_int_mass():
    assert prob_b1(np.int64(2**32)) == prob_b1(2**32)


def test_a_numpy_k_gives_the_python_int_limit():
    assert geometric_limit(np.int64(70)) == F(1, 2**71)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_pmf_b(np.int64(2**32), 8),
        lambda: expected_record_count(np.int64(2**32)),
    ],
    ids=["exact_pmf_b", "expected_record_count"],
)
def test_a_numpy_n_past_the_exact_ceiling_is_refused_at_once(call):
    with pytest.raises(CapacityError):
        _within(1, call)
