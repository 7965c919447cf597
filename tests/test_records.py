"""Unit tests for the incremental record stack and trajectory runner."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenrecords import records
from brokenrecords import (
    RecordEntry,
    RecordStack,
    TieError,
    records_by_scan,
    run_trajectory,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
distinct_lists = st.lists(finite, unique=True, min_size=1, max_size=60)


def _stack_from(pairs):
    return RecordStack([RecordEntry(i, v) for i, v in pairs])


def _quadratic_records_by_scan(values):
    """The definition read literally: keep (i, x_i) iff no later value
    exceeds x_i, checking every later index."""
    vals = list(values)
    _loop_check_distinct(vals)
    m = len(vals)
    return RecordStack(
        [
            RecordEntry(i, v)
            for i, v in enumerate(vals)
            if not any(vals[j] > v for j in range(i + 1, m))
        ]
    )


def _loop_check_distinct(values):
    """Tie and NaN screen as one Python loop, naming the first offender."""
    seen = {}
    for i, v in enumerate(values):
        if v != v:
            raise ValueError(f"observation at index {i} is not comparable (NaN)")
        j = seen.setdefault(v, i)
        if j != i:
            raise TieError(
                f"values at indices {j} and {i} are equal ({v!r})", indices=(j, i)
            )


class _ReferenceStack:
    """The record stack as one list of frozen ``RecordEntry`` objects: the
    design the two-list stack replaced, kept as its behavioural reference."""

    def __init__(self, entries=()):
        self.entries = list(entries)
        self.validate()

    @property
    def time(self):
        return self.entries[-1].index if self.entries else -1

    def indices(self):
        return [e.index for e in self.entries]

    def values(self):
        return [e.value for e in self.entries]

    def step(self, value):
        if value != value:
            raise ValueError("observation is not comparable (NaN)")
        entries = self.entries
        arriving = entries[-1].index + 1 if entries else 0
        broken = 0
        while entries and entries[-1].value < value:
            entries.pop()
            broken += 1
        if entries and entries[-1].value == value:
            raise TieError(
                f"value {value!r} at index {arriving} ties the record at "
                f"index {entries[-1].index}",
                indices=(entries[-1].index, arriving),
            )
        entries.append(RecordEntry(arriving, value))
        return broken

    def validate(self):
        entries = self.entries
        for prev, cur in zip(entries, entries[1:]):
            if cur.index <= prev.index:
                raise ValueError(
                    f"indices not strictly increasing: {prev.index} then {cur.index}"
                )
            if not cur.value < prev.value:
                raise ValueError(
                    f"values not strictly decreasing: {prev.value!r} then {cur.value!r}"
                )

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, _ReferenceStack):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        inner = ", ".join(f"({e.index}, {e.value!r})" for e in self.entries)
        return f"RecordStack([{inner}])"


def _reference_run_trajectory(values):
    """``run_trajectory`` over the reference stack, one ``step`` per value."""
    vals = list(values)
    if not vals:
        raise ValueError("trajectory needs at least one observation")
    records._check_distinct(vals)
    stack = _ReferenceStack()
    stack.step(vals[0])
    r_path, b_path = [1], []
    for v in vals[1:]:
        b_path.append(stack.step(v))
        r_path.append(len(stack.entries))
    return r_path, b_path, stack


def _stepped(stack, value):
    try:
        return ("ok", stack.step(value))
    except TieError as exc:
        return ("tie", exc.indices, str(exc))
    except ValueError as exc:
        return ("nan", str(exc))


def _outcome(check, values):
    try:
        check(values)
    except TieError as exc:
        return ("tie", exc.indices, str(exc))
    except ValueError as exc:
        return ("nan", str(exc))
    return ("ok",)


_NAN = float("nan")
mixed = st.one_of(
    st.integers(-(2**70), 2**70),
    finite,
    st.integers(-5, 5),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 2**53, 2.0**53 + 2]),
)


class TestStack:
    def test_new_stack_empty(self):
        s = RecordStack()
        assert len(s) == 0
        assert s.time == -1
        s.validate()

    def test_step_single_survivor(self):
        s = _stack_from([(0, 0.9)])
        broken = s.step(0.5)
        assert broken == 0
        assert s.values() == [0.9, 0.5]
        assert s.indices() == [0, 1]
        assert s.time == 1

    def test_step_full_break(self):
        s = _stack_from([(0, 0.3), (1, 0.2), (2, 0.1)])
        broken = s.step(0.99)
        assert broken == 3
        assert s.values() == [0.99]
        assert s.indices() == [3]

    def test_step_staircase_partial_break(self):
        idx = (1, 10, 14, 16, 18, 19, 23, 24)
        vals = (0.95, 0.80, 0.70, 0.60, 0.50, 0.40, 0.30, 0.20)
        s = _stack_from(zip(idx, vals))
        broken = s.step(0.75)
        assert broken == 6
        assert s.values() == [0.95, 0.80, 0.75]
        assert s.indices() == [1, 10, 25]
        s.validate()

    def test_step_size_identity(self):
        s = _stack_from([(0, 0.8), (1, 0.6), (2, 0.4)])
        before = len(s)
        broken = s.step(0.5)
        assert len(s) == before + 1 - broken

    def test_tie_with_surviving_top(self):
        s = _stack_from([(0, 0.9), (1, 0.4)])
        with pytest.raises(TieError) as exc:
            s.step(0.4)
        assert 1 in exc.value.indices and 2 in exc.value.indices
        # Ties below the break point are fine to pop through; equality with
        # the value that would survive is the only fatal comparison.
        s2 = _stack_from([(0, 0.9), (1, 0.4)])
        broken = s2.step(0.6)
        assert broken == 1

    def test_nan_rejected(self):
        s = RecordStack()
        with pytest.raises(ValueError):
            s.step(float("nan"))

    def test_constructor_rejects_bad_staircase(self):
        with pytest.raises(ValueError):
            _stack_from([(0, 0.5), (1, 0.7)])  # values not decreasing
        with pytest.raises(ValueError):
            _stack_from([(3, 0.9), (1, 0.5)])  # indices not increasing
        with pytest.raises(ValueError):
            _stack_from([(0, 0.5), (1, 0.5)])  # tied values

    def test_eq_and_iter(self):
        a = _stack_from([(0, 0.9), (2, 0.5)])
        b = _stack_from([(0, 0.9), (2, 0.5)])
        assert a == b
        assert [e.value for e in a] == [0.9, 0.5]


class TestScan:
    def test_scan_example(self):
        recs = records_by_scan([0.2, 0.9, 0.5])
        assert [e.index for e in recs] == [1, 2]
        assert [e.value for e in recs] == [0.9, 0.5]

    def test_scan_singleton(self):
        recs = records_by_scan([0.4])
        assert [(e.index, e.value) for e in recs] == [(0, 0.4)]

    def test_scan_empty(self):
        assert len(records_by_scan([])) == 0

    def test_scan_tie_rejected(self):
        with pytest.raises(TieError):
            records_by_scan([0.1, 0.5, 0.5])


class TestOnePassScan:
    """``records_by_scan`` against the literal quadratic definition."""

    @given(
        st.one_of(
            st.lists(st.integers(-(2**70), 2**70), unique=True, max_size=60),
            st.lists(finite, unique=True, max_size=60),
            st.lists(st.integers(-1000, -1), unique=True, max_size=60),
            st.lists(mixed, unique=True, max_size=60),
        )
    )
    @settings(max_examples=400)
    def test_equals_quadratic_definition(self, vals):
        assert records_by_scan(vals) == _quadratic_records_by_scan(vals)

    @pytest.mark.parametrize(
        "vals",
        [[], [7], [-3.5], [1, 2.5, -4, 2], [2**70, 0.5, -(2**70)], [3, 2, 1], [1, 2, 3]],
    )
    def test_small_and_mixed_cases(self, vals):
        assert records_by_scan(vals) == _quadratic_records_by_scan(vals)

    def test_scan_reads_a_generator_once(self):
        recs = records_by_scan(v for v in [0.2, 0.9, 0.5])
        assert [(e.index, e.value) for e in recs] == [(1, 0.9), (2, 0.5)]


class TestDistinctScreen:
    """The C-level screen names the same offender as the Python loop."""

    @given(st.lists(st.one_of(mixed, st.just(_NAN), st.floats()), max_size=30))
    @settings(max_examples=400)
    def test_same_outcome_as_loop(self, vals):
        assert _outcome(records._check_distinct, vals) == _outcome(
            _loop_check_distinct, vals
        )

    @pytest.mark.parametrize(
        "vals, indices",
        [
            ([0.1, 0.5, 0.5], (1, 2)),
            ([3, 1, 2, 1, 3], (1, 3)),
            ([1, 1.0], (0, 1)),
            ([0.0, 2, -0.0], (0, 2)),
            ([4, 9, 9, 4], (1, 2)),
            ([0.5, 0.5, _NAN], (0, 1)),
        ],
    )
    def test_first_colliding_pair(self, vals, indices):
        with pytest.raises(TieError) as exc:
            records._check_distinct(vals)
        assert exc.value.indices == indices
        assert _outcome(records._check_distinct, vals) == _outcome(
            _loop_check_distinct, vals
        )

    @pytest.mark.parametrize(
        "vals, index",
        [
            ([_NAN], 0),
            ([0.5, _NAN, 0.7], 1),
            ([_NAN, 0.5, _NAN], 0),  # one NaN object, twice
            ([0.5, float("nan"), float("nan")], 1),
        ],
    )
    def test_nan_is_value_error(self, vals, index):
        for check in (records._check_distinct, run_trajectory, records_by_scan):
            with pytest.raises(ValueError) as exc:
                check(vals)
            assert not isinstance(exc.value, TieError)
            assert f"index {index} " in str(exc.value)


class TestTwoListStack:
    """The two-list stack against the one-list ``_ReferenceStack``."""

    # Ties come from the small ints and the sampled floats (0.0 == -0.0,
    # 2 == 2.0); NaN is drawn on its own.
    observations = st.lists(
        st.one_of(mixed, st.just(_NAN), st.floats()), max_size=40
    )

    @given(
        st.one_of(
            st.lists(st.integers(-(2**70), 2**70), unique=True, max_size=40),
            st.lists(finite, unique=True, max_size=40),
            st.lists(st.integers(-1000, -1), unique=True, max_size=40),
            observations,
        )
    )
    @settings(max_examples=400)
    def test_step_by_step_matches_reference(self, vals):
        new, ref = RecordStack(), _ReferenceStack()
        prev_new, prev_ref = RecordStack(), _ReferenceStack()
        for v in vals:
            assert _stepped(new, v) == _stepped(ref, v)
            assert new.entries == ref.entries
            assert repr(new) == repr(ref)
            assert (len(new), new.time) == (len(ref), ref.time)
            assert (new.indices(), new.values()) == (ref.indices(), ref.values())
            assert (new == prev_new) == (ref == prev_ref)
            prev_new, prev_ref = RecordStack(new.entries), _ReferenceStack(ref.entries)
            assert new == prev_new

    @staticmethod
    def _trajectory(run, vals):
        try:
            r_path, b_path, final = run(vals)
        except TieError as exc:
            return ("tie", exc.indices, str(exc))
        except ValueError as exc:
            return ("nan", str(exc))
        return r_path, b_path, final.entries, repr(final)

    @staticmethod
    def _run_new(vals):
        stats = run_trajectory(vals)
        return stats.r_path, stats.b_path, stats.final_records

    @given(
        st.one_of(
            st.lists(mixed, unique=True, max_size=40),
            st.lists(finite, unique=True, max_size=40),
            st.lists(st.one_of(mixed, st.just(_NAN)), max_size=40),
        )
    )
    @settings(max_examples=400)
    def test_trajectory_matches_reference(self, vals):
        assert self._trajectory(self._run_new, vals) == self._trajectory(
            _reference_run_trajectory, vals
        )

    def test_entries_is_a_fresh_copy(self):
        s = _stack_from([(0, 0.9), (2, 0.5)])
        listed = s.entries
        assert listed is not s.entries
        listed.pop()
        listed.append(RecordEntry(9, 5.0))
        s.indices().clear()
        s.values().append(0.1)
        assert s.entries == [RecordEntry(0, 0.9), RecordEntry(2, 0.5)]
        assert len(s) == 2 and s.time == 2
        assert s.step(0.7) == 1
        assert s == _stack_from([(0, 0.9), (3, 0.7)])

    def test_extend_records_breaks_and_sizes(self):
        s = RecordStack()
        assert s.extend([0.31, 0.9, 0.12, 0.77, 0.5]) == (
            [0, 1, 0, 1, 0],
            [1, 1, 2, 2, 3],
        )
        assert s.extend([]) == ([], [])
        assert s.extend([0.8]) == ([2], [2])
        assert repr(s) == "RecordStack([(1, 0.9), (5, 0.8)])"


class TestTrajectory:
    def test_decreasing_sequence(self):
        m = 12
        vals = [1.0 - 0.05 * i for i in range(m)]
        stats = run_trajectory(vals)
        assert stats.b_path == [0] * (m - 1)
        assert stats.r_path == list(range(1, m + 1))
        assert stats.total_broken == 0
        assert len(stats.final_records) == m

    def test_increasing_sequence(self):
        m = 12
        vals = [0.05 * (i + 1) for i in range(m)]
        stats = run_trajectory(vals)
        assert stats.b_path == [1] * (m - 1)
        assert stats.r_path == [1] * m
        assert len(stats.final_records) == 1
        assert stats.final_records.indices() == [m - 1]

    def test_staircase_reconstruction(self):
        # 25 observations whose suffix-maxima staircase lands on eight
        # planted indices; everything else is dominated filler.
        planted = {
            1: 0.95,
            10: 0.80,
            14: 0.70,
            16: 0.60,
            18: 0.50,
            19: 0.40,
            23: 0.30,
            24: 0.20,
        }
        vals = [planted.get(i, 0.001 * (i + 1)) for i in range(25)]
        stats = run_trajectory(vals)
        assert [e.index for e in stats.final_records] == sorted(planted)
        assert stats.r_path[-1] == 8
        assert stats.n == 24
        assert sum(stats.b_path) == 25 - 8

    def test_conservation_identity(self):
        vals = [0.31, 0.9, 0.12, 0.77, 0.5, 0.61, 0.02]
        stats = run_trajectory(vals)
        r = stats.r_path
        assert r[0] == 1
        for t, b in enumerate(stats.b_path, start=1):
            assert r[t] == r[t - 1] + 1 - b

    def test_trajectory_tie_prescan(self):
        with pytest.raises(TieError) as exc:
            run_trajectory([0.3, 0.7, 0.3])
        assert exc.value.indices == (0, 2)

    def test_trajectory_empty_rejected(self):
        with pytest.raises(ValueError):
            run_trajectory([])


class TestProperties:
    @given(distinct_lists)
    @settings(max_examples=200)
    def test_scan_matches_incremental(self, vals):
        stats = run_trajectory(vals)
        scan = records_by_scan(vals)
        assert stats.final_records == scan

    @given(distinct_lists)
    @settings(max_examples=200)
    def test_stepwise_invariants(self, vals):
        s = RecordStack()
        r_prev = 0
        for t, v in enumerate(vals):
            broken = s.step(v)
            s.validate()
            assert s.time == t
            if t > 0:
                assert len(s) == r_prev + 1 - broken
                assert 0 <= broken <= r_prev
            r_prev = len(s)

    @given(distinct_lists)
    @settings(max_examples=200)
    def test_rank_invariance(self, vals):
        # Break counts depend only on the relative order of the inputs.
        rank = {v: i for i, v in enumerate(sorted(vals))}
        mapped = [float(rank[v]) for v in vals]
        a = run_trajectory(vals)
        b = run_trajectory(mapped)
        assert a.b_path == b.b_path
        assert a.r_path == b.r_path
        assert [e.index for e in a.final_records] == [
            e.index for e in b.final_records
        ]

    @given(distinct_lists)
    @settings(max_examples=100)
    def test_total_breaks_bounded(self, vals):
        stats = run_trajectory(vals)
        # Each observation is broken at most once, so pops never exceed
        # insertions.
        assert stats.total_broken == len(vals) - stats.r_path[-1]
        assert 1 <= stats.r_path[-1] <= len(vals)

    @given(st.lists(finite, unique=True, min_size=2, max_size=40))
    @settings(max_examples=100)
    def test_scan_is_suffix_maxima(self, vals):
        recs = records_by_scan(vals)
        assert recs == _quadratic_records_by_scan(vals)
        values = [e.value for e in recs]
        assert values == sorted(values, reverse=True)
        assert values[-1] == vals[-1]
        assert values[0] == max(vals)

    def test_math_isinf_values_fine(self):
        # Extreme but finite magnitudes pass through untouched.
        vals = [1e308, -1e308, 5e307]
        stats = run_trajectory(vals)
        assert math.isfinite(stats.final_records.values()[0])
