"""Unit tests for the vectorized simulator and its audit machinery.

Statistical assertions run at frozen seeds whose margins were confirmed
to sit far inside the stated tolerances, so no test here is flaky.
"""

import multiprocessing
import os
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brokenrecords
import brokenrecords.montecarlo as mc
import brokenrecords.records as records
from brokenrecords import (
    AuditReport,
    CapacityError,
    EmpiricalPmf,
    InvariantError,
    PartialResultError,
    RecordEntry,
    RecordStack,
    SimConfig,
    TrajectoryStats,
    check_trajectory,
    default_checkpoints,
    expected_record_count,
    final_break_counts,
    oracle_pmf_b,
    oracle_pmf_r,
    record_counts,
    run_trajectory,
    simulate_b,
    simulate_b_checkpoints,
    simulate_r,
    simulate_trajectory_audit,
    trial_values,
)


def _traced_peak(fn):
    """``fn()`` and the peak of the memory that numpy and Python traced."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


TILE_BYTES = mc._TILE_VALUES * np.dtype(np.uint64).itemsize


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig(n=5, trials=10, seed=1)
        assert cfg.kmax == 12
        assert cfg.workers == mc.usable_cpus()

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        assert mc.usable_cpus() == 2
        monkeypatch.delattr(mc.os, "sched_getaffinity")
        assert mc.usable_cpus() == 64
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc.usable_cpus() == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "trials": 1, "seed": 0},
            {"n": -2, "trials": 1, "seed": 0},
            {"n": 1, "trials": 0, "seed": 0},
            {"n": 1, "trials": 1, "seed": -1},
            {"n": 1, "trials": 1, "seed": 2**64},
            {"n": 1, "trials": 1, "seed": 0, "kmax": -1},
            {"n": 1, "trials": 1, "seed": 0, "workers": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_frozen(self):
        cfg = SimConfig(n=1, trials=1, seed=0)
        with pytest.raises(AttributeError):
            cfg.n = 2


class TestEmpiricalPmf:
    def _pmf(self, **over):
        base = dict(
            n=2,
            trials=10,
            counts={0: 5, 1: 3, 2: 2},
            overflow=0,
            kmax=12,
            meta={},
        )
        base.update(over)
        return EmpiricalPmf(**base)

    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            self._pmf(counts={0: 5, 1: 3, 2: 1})

    def test_frequency(self):
        pmf = self._pmf()
        assert pmf.frequency(0) == 0.5
        assert pmf.frequency(7) == 0.0
        freqs = pmf.frequencies()
        assert freqs[1] == 0.3
        assert abs(sum(freqs.values()) - 1.0) < 1e-12

    def test_stderr_shape(self):
        pmf = self._pmf()
        se = pmf.stderr(0)
        assert se == pytest.approx((0.25 / 10) ** 0.5)

    def test_mean_requires_no_overflow(self):
        pmf = self._pmf()
        assert pmf.mean() == pytest.approx(0.7)
        spilled = self._pmf(counts={0: 5, 1: 3, 2: 1}, overflow=1)
        with pytest.raises(ValueError):
            spilled.mean()


class TestTrialValues:
    def test_range_independence(self):
        whole, _ = trial_values(99, 6, 0, 40)
        left, _ = trial_values(99, 6, 0, 17)
        right, _ = trial_values(99, 6, 17, 40)
        assert np.array_equal(whole, np.concatenate([left, right]))

    def test_shape_and_dtype(self):
        vals, _ = trial_values(5, 3, 2, 9)
        assert vals.shape == (7, 4)
        assert vals.dtype == np.uint64

    def test_rows_are_distinct_within(self):
        vals, _ = trial_values(7, 50, 0, 200)
        for row in vals:
            assert len(np.unique(row)) == row.size

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            trial_values(1, 2, 5, 5)

    def test_planted_tie_is_redrawn(self):
        seed, n, t0 = 11, 5, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        keep0, keep2 = vals[0].copy(), vals[2].copy()
        vals[1][2] = vals[1][3]  # fabricate a collision in trial t0+1
        redraws = mc._resolve_ties(vals, seed, n, t0)
        assert redraws >= 1
        assert not mc._row_has_tie(vals[1])
        assert np.array_equal(vals[0], keep0)
        assert np.array_equal(vals[2], keep2)
        # The replacement comes from the deterministic redraw stream of
        # that one trial: first tie-free attempt wins.
        for attempt in range(1, 10):
            row = mc._raw_rows(seed, n, t0 + 1, t0 + 2, attempt)[0]
            if not mc._row_has_tie(row):
                assert np.array_equal(vals[1], row)
                break


    @staticmethod
    def _first_clean_attempt(seed, n, t):
        for attempt in range(1, 10):
            row = mc._raw_rows(seed, n, t, t + 1, attempt)[0]
            if not mc._row_has_tie(row):
                return row, attempt
        raise AssertionError("no tie-free redraw in nine attempts")

    @pytest.mark.parametrize("shift", [0, 32], ids=["low-half", "high-half"])
    def test_half_collision_alone_is_not_redrawn(self, shift):
        # Copy one 32-bit half of a value into another column and flip a
        # bit of the other half: the halves collide, the values differ.
        seed, n, t0 = 11, 40, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        half = np.uint64(0xFFFFFFFF << shift)
        other = np.uint64(1 << (32 - shift))
        vals[1][7] = (vals[1][20] & half) | ((vals[1][20] ^ other) & ~half)
        assert vals[1][7] != vals[1][20]
        assert not mc._row_has_tie(vals[1])
        before = vals.copy()
        assert mc._resolve_ties(vals, seed, n, t0) == 0
        assert np.array_equal(vals, before)

    def test_two_half_collisions_flag_the_row_once(self, monkeypatch):
        # Two pairs with equal high halves and two with equal low halves:
        # the screen sees two collisions in row 1 on either byte order, yet
        # no value repeats, so the row is checked once and kept.
        seed, n, t0 = 11, 40, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        low = np.uint64(0xFFFFFFFF)
        high = ~low
        row = vals[1]
        row[1] = (row[0] & high) | (~row[0] & low)
        row[3] = (row[2] & high) | (~row[2] & low)
        row[5] = (row[4] & low) | (~row[4] & high)
        row[7] = (row[6] & low) | (~row[6] & high)
        assert not mc._row_has_tie(row)
        checked = []
        exact = mc._row_has_tie
        monkeypatch.setattr(
            mc, "_row_has_tie", lambda r: checked.append(r.copy()) or exact(r)
        )
        before = vals.copy()
        assert mc._resolve_ties(vals, seed, n, t0) == 0
        assert len(checked) == 1
        assert np.array_equal(checked[0], before[1])
        assert np.array_equal(vals, before)

    def test_tie_screen_memory_stays_under_the_chunk(self):
        # Every row gets a pair of values with equal high halves and a pair
        # with equal low halves, so the half screen flags every row on
        # either byte order, yet no value repeats.
        seed, n, t0 = 11, 4096, 0
        vals, _ = trial_values(seed, n, t0, t0 + 64)
        low = np.uint64(0xFFFFFFFF)
        high = ~low
        vals[:, 1] = (vals[:, 0] & high) | (~vals[:, 0] & low)
        vals[:, 3] = (vals[:, 2] & low) | (~vals[:, 2] & high)
        assert not any(mc._row_has_tie(row) for row in vals)
        before = vals.copy()
        redraws, peak = _traced_peak(lambda: mc._resolve_ties(vals, seed, n, t0))
        assert redraws == 0
        assert np.array_equal(vals, before)
        assert peak < vals.nbytes

    @pytest.mark.parametrize("col", [0, 20, 40], ids=["first", "middle", "last"])
    def test_true_tie_at_any_column_is_redrawn(self, col):
        seed, n, t0 = 11, 40, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        keep0, keep2 = vals[0].copy(), vals[2].copy()
        vals[1][col] = vals[1][(col + 13) % (n + 1)]
        redraws = mc._resolve_ties(vals, seed, n, t0)
        row, attempts = self._first_clean_attempt(seed, n, t0 + 1)
        assert redraws == attempts
        assert np.array_equal(vals[1], row)
        assert np.array_equal(vals[0], keep0)
        assert np.array_equal(vals[2], keep2)

    def test_a_true_tie_in_every_row_is_redrawn(self):
        # The screen names rows from flat hits of the (rows x n) comparison;
        # a tie in every row, first and last included and at every column,
        # shows a hit mapped to the wrong row or a row dropped.
        seed, n, t0, rows = 11, 40, 30, 50
        vals, _ = trial_values(seed, n, t0, t0 + rows)
        for i in range(rows):
            vals[i][i % (n + 1)] = vals[i][(i + 7) % (n + 1)]
        redraws = mc._resolve_ties(vals, seed, n, t0)
        total = 0
        for i in range(rows):
            row, attempts = self._first_clean_attempt(seed, n, t0 + i)
            assert np.array_equal(vals[i], row), i
            total += attempts
        assert redraws == total


class TestWideRowTieScreen:
    """The half-word screen of wider rows, a tile of ``_TILE_VALUES // m``
    rows at a time."""

    _first_clean_attempt = staticmethod(TestTrialValues._first_clean_attempt)

    def _redraws_exactly(self, n, rows, tied):
        seed, t0 = 11, 0
        clean, _ = trial_values(seed, n, t0, t0 + rows)
        vals = clean.copy()
        for r in tied:
            vals[r][r % n] = vals[r][n]
        total = 0
        for r in tied:
            row, attempts = self._first_clean_attempt(seed, n, t0 + r)
            total += attempts
            clean[r] = row
        assert mc._resolve_ties(vals, seed, n, t0) == total
        assert np.array_equal(vals, clean)

    def test_ties_at_tile_edges_are_redrawn(self):
        # Rows on both sides of each tile boundary and in the last, short tile.
        n = 500
        size = mc._TILE_VALUES // (n + 1)
        rows = 2 * size + 7
        self._redraws_exactly(n, rows, [0, size - 1, size, 2 * size - 1, 2 * size, rows - 1])

    def test_a_row_wider_than_a_tile_is_its_own_tile(self):
        n = mc._TILE_VALUES + 3
        self._redraws_exactly(n, 4, [1, 3])

    def test_screen_memory_stays_near_one_tile(self):
        # Sorting the half words of the whole chunk at once would take half
        # its bytes; the screen holds the half words of one tile.
        n = 500
        vals, _ = trial_values(11, n, 0, mc._rows_per_chunk(n))
        _, peak = _traced_peak(lambda: mc._resolve_ties(vals, 11, n, 0))
        assert peak < TILE_BYTES < vals.nbytes // 4


SHORT_WIDTHS = range(2, mc._SHORT_COLUMNS + 1)
# More rows than one column-major tile holds at any width of at least two.
ONE_TILE_AT_ANY_WIDTH = mc._TILE_VALUES // 2 + 123


class TestShortRowTieScreen:
    """The exact pairwise screen of rows of at most ``_SHORT_COLUMNS`` values."""

    _first_clean_attempt = staticmethod(TestTrialValues._first_clean_attempt)

    @pytest.mark.parametrize("m", SHORT_WIDTHS)
    def test_a_true_tie_at_every_column_pair_is_redrawn(self, m):
        seed, n, t0 = 11, m - 1, 30
        clean, _ = trial_values(seed, n, t0, t0 + 3)
        row, attempts = self._first_clean_attempt(seed, n, t0 + 1)
        for i in range(m):
            for j in range(i + 1, m):
                vals = clean.copy()
                vals[1][i] = vals[1][j]
                assert mc._resolve_ties(vals, seed, n, t0) == attempts, (i, j)
                assert np.array_equal(vals[1], row), (i, j)
                assert np.array_equal(vals[[0, 2]], clean[[0, 2]]), (i, j)

    def test_ties_at_tile_edges_are_redrawn(self):
        # Rows on both sides of a tile boundary and in the last, short tile.
        seed, n, t0 = 11, 8, 0
        size = mc._TILE_VALUES // (n + 1)
        rows = size + 5
        clean, _ = trial_values(seed, n, t0, t0 + rows)
        tied = [0, size - 1, size, rows - 1]
        vals = clean.copy()
        for r in tied:
            vals[r][r % n] = vals[r][n]
        total = 0
        for r in tied:
            row, attempts = self._first_clean_attempt(seed, n, t0 + r)
            total += attempts
            clean[r] = row
        assert mc._resolve_ties(vals, seed, n, t0) == total
        assert np.array_equal(vals, clean)

    @pytest.mark.parametrize("shift", [0, 32], ids=["low-half", "high-half"])
    @pytest.mark.parametrize("m", [2, 9, mc._SHORT_COLUMNS])
    def test_half_collision_alone_is_never_flagged(self, m, shift, monkeypatch):
        # The screen is exact on short rows, so no row reaches the check.
        seed, n, t0 = 11, m - 1, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        half = np.uint64(0xFFFFFFFF << shift)
        other = np.uint64(1 << (32 - shift))
        vals[1][0] = (vals[1][n] & half) | ((vals[1][n] ^ other) & ~half)
        assert vals[1][0] != vals[1][n]
        checked = []
        monkeypatch.setattr(mc, "_row_has_tie", checked.append)
        before = vals.copy()
        assert mc._resolve_ties(vals, seed, n, t0) == 0
        assert checked == []
        assert np.array_equal(vals, before)

    def test_screen_memory_stays_near_one_tile(self):
        # The pairwise screen holds one column-major tile and its flags,
        # however many tiles the rows span.
        n = 8
        vals, _ = trial_values(11, n, 0, 16 * (mc._TILE_VALUES // (n + 1)))
        _, peak = _traced_peak(lambda: mc._resolve_ties(vals, 11, n, 0))
        assert peak < 2 * TILE_BYTES < vals.nbytes // 4


class TestColumnTiles:
    """``_column_tiles`` yields every row once, in order, in tiles of
    ``_TILE_VALUES // m`` rows (at least one)."""

    @staticmethod
    def _check(vals):
        rows, m = vals.shape
        size = max(1, mc._TILE_VALUES // m)
        end = 0
        for r0, cols in mc._column_tiles(vals):
            assert r0 == end
            assert cols.shape == (m, min(size, rows - r0))
            assert cols.size <= max(mc._TILE_VALUES, m)
            assert np.array_equal(cols.T, vals[r0 : r0 + cols.shape[1]])
            end = r0 + cols.shape[1]
        assert end == rows

    @settings(max_examples=200, deadline=None)
    @given(budget=st.integers(1, 40), rows=st.integers(0, 30), m=st.integers(1, 60))
    def test_every_row_once_in_order(self, budget, rows, m):
        vals = np.arange(rows * (m + 3), dtype=np.uint64).reshape(rows, m + 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_TILE_VALUES", budget)
            self._check(vals[:, 3:])  # a column slice, as the walk passes

    @pytest.mark.parametrize("m", [1, 12, mc._TILE_VALUES, mc._TILE_VALUES + 3])
    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_at_the_budget(self, m, rows):
        self._check(np.arange(rows * m, dtype=np.uint64).reshape(rows, m))

    def test_rows_past_one_tile(self):
        m = 7
        rows = 2 * (mc._TILE_VALUES // m) + 5
        self._check(np.arange(rows * m, dtype=np.uint64).reshape(rows, m))


@pytest.fixture
def planted_ties(monkeypatch):
    """First draws with a true tie in every 97th trial, at a varying pair."""
    raw = mc._raw_rows

    def planted(seed, n, t0, t1, attempt):
        rows = raw(seed, n, t0, t1, attempt)
        if attempt == 0:
            for t in range(-(-t0 // 97) * 97, t1, 97):
                i = t % (n + 1)
                rows[t - t0, i] = rows[t - t0, (i + 1 + t % n) % (n + 1)]
        return rows

    monkeypatch.setattr(mc, "_raw_rows", planted)


class TestShortRowPathsMatchTheWidePaths:
    """With ``_SHORT_COLUMNS`` at 2, the least the break-count walk reads,
    every row of more than two values takes the wide-row code; rows of two
    stay on the pairwise screen, which ``TestShortRowTieScreen`` covers."""

    @staticmethod
    def _both(monkeypatch, fn):
        short = fn()
        with monkeypatch.context() as mp:
            mp.setattr(mc, "_SHORT_COLUMNS", 2)
            wide = fn()
        return short, wide

    @pytest.mark.parametrize("n", range(1, mc._SHORT_COLUMNS + 2))
    def test_values_and_redraws(self, n, planted_ties, monkeypatch):
        for t0, t1 in [(0, ONE_TILE_AT_ANY_WIDTH), (5, 6), (970, 971)]:
            (vs, rs), (vw, rw) = self._both(
                monkeypatch, lambda: trial_values(3, n, t0, t1)
            )
            assert np.array_equal(vs, vw)
            assert rs == rw
        assert rs == 1  # trial 970 = 10 * 97 was tied at first

    @pytest.mark.parametrize("n", range(1, mc._SHORT_COLUMNS + 2))
    def test_break_counts(self, n, monkeypatch):
        for t0, t1 in [(0, ONE_TILE_AT_ANY_WIDTH), (7, 8)]:
            vals, _ = trial_values(3, n, t0, t1)
            for t in range(1, n + 1):
                view = vals[:, : t + 1]
                short, wide = self._both(monkeypatch, lambda: final_break_counts(view))
                assert np.array_equal(short, wide), (t0, t)

    def test_simulations(self, planted_ties, monkeypatch):
        cfg = SimConfig(n=mc._SHORT_COLUMNS - 1, trials=3000, seed=17)
        short, wide = self._both(monkeypatch, lambda: simulate_b_checkpoints(cfg))
        for t in short:
            assert short[t].counts == wide[t].counts
            assert short[t].meta["tie_redraws"] == wide[t].meta["tie_redraws"] > 0


def _reference_final_break_counts(vals):
    """Definitional form: a head column is a current record iff it equals
    the suffix maximum of the head; the last value breaks those below it."""
    head = vals[:, :-1]
    last = vals[:, -1:]
    smax = np.maximum.accumulate(head[:, ::-1], axis=1)[:, ::-1]
    return ((head == smax) & (head < last)).sum(axis=1)


def _rows(*rows):
    return np.array(rows, dtype=np.uint64)


class TestBreakCountWalk:
    """The backward walk of ``final_break_counts`` against its definition."""

    @pytest.mark.parametrize(
        "n, trials",
        [(1, 3000), (2, 3000), (3, 3000), (8, 3000), (16, 3000), (17, 3000),
         (64, 3000), (500, 2000), (5000, 300)],
    )
    def test_seeded_chunks(self, n, trials):
        vals, _ = trial_values(2718, n, 0, trials)
        assert np.array_equal(
            final_break_counts(vals), _reference_final_break_counts(vals)
        )

    @pytest.mark.parametrize("m", SHORT_WIDTHS)
    def test_short_row_tiles(self, m):
        # Two full tiles and a short one of whole rows, and every prefix
        # view of them.
        vals, _ = trial_values(2718, m - 1, 0, 2 * (mc._TILE_VALUES // m) + 77)
        for t in range(1, m):
            view = vals[:, : t + 1]
            assert np.array_equal(
                final_break_counts(view), _reference_final_break_counts(view)
            )

    def test_checkpoint_views(self):
        vals, _ = trial_values(31, 200, 0, 2000)
        for t in (1, 2, 3, 8, 9, 10, 50, 123, 200):
            view = vals[:, : t + 1]
            assert np.array_equal(
                final_break_counts(view), _reference_final_break_counts(view)
            )

    @pytest.mark.parametrize("n", [1, 8, 9, 10, 300, 4000])
    def test_single_row_chunks(self, n):
        for t in range(40):
            vals, _ = trial_values(5, n, t, t + 1)
            assert np.array_equal(
                final_break_counts(vals), _reference_final_break_counts(vals)
            )

    def test_chunk_crossing_tiles_and_gather(self):
        # More rows than one dense tile, and more columns than the dense
        # phase reads, so every row passes both phases of the walk.
        n = mc._SHORT_COLUMNS + 40
        rows = 2 * (mc._TILE_VALUES // mc._SHORT_COLUMNS) + 123
        vals, _ = trial_values(99, n, 0, rows)
        assert np.array_equal(
            final_break_counts(vals), _reference_final_break_counts(vals)
        )
        # Rows whose dense columns all lie below X_n are gathered.
        dense = vals[:, n + 1 - mc._SHORT_COLUMNS : n]
        assert (dense < vals[:, -1:]).all(axis=1).sum() > rows // 20

    def test_dense_phase_memory_stays_near_one_tile(self):
        # Rows of _SHORT_COLUMNS values are read by the dense phase alone;
        # past the per-row count and running maximum it holds one tile.
        n = mc._SHORT_COLUMNS - 1
        vals, _ = trial_values(11, n, 0, 16 * (mc._TILE_VALUES // (n + 1)))
        counts, peak = _traced_peak(lambda: final_break_counts(vals))
        assert peak - 2 * counts.nbytes < 2 * TILE_BYTES < vals.nbytes // 4

    def test_adversarial_rows(self):
        n = 30
        top = 2**64 - 1
        rng = np.random.default_rng(4)
        body = rng.choice(2**40, size=(4, n), replace=False).astype(np.uint64) + 1
        descending = np.sort(body[2])[::-1]
        ascending = np.sort(body[3])
        vals = _rows(
            [*body[0], 0],  # nothing lies below X_n
            [*body[1], top],  # every current record is broken
            [*descending, top],  # every head value is a record: B = n
            [*ascending, ascending[-1] + 1],  # one record in the head: B = 1
            [*ascending, ascending[-2] + 1],  # X_n under that record: B = 0
        )
        got = final_break_counts(vals)
        assert np.array_equal(got, _reference_final_break_counts(vals))
        smax = np.maximum.accumulate(body[1][::-1])
        assert got.tolist() == [0, len(np.unique(smax)), n, 1, 0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_distinct_integer_rows(self, data):
        width = data.draw(st.integers(2, 40))
        count = data.draw(st.integers(1, 4))
        rows = [
            data.draw(
                st.lists(
                    st.integers(0, 2**64 - 1),
                    min_size=width,
                    max_size=width,
                    unique=True,
                )
            )
            for _ in range(count)
        ]
        vals = _rows(*rows)
        assert np.array_equal(
            final_break_counts(vals), _reference_final_break_counts(vals)
        )


def _reference_record_counts(vals):
    """Definitional form: a column is a current record iff it equals the
    suffix maximum of its row."""
    smax = np.maximum.accumulate(vals[:, ::-1], axis=1)[:, ::-1]
    return (vals == smax).sum(axis=1)


class TestRecordCountScan:
    """Both paths of ``record_counts`` against the suffix-max definition."""

    @pytest.mark.parametrize("n", [1, 2, 8, 63, 64, 100, 500, 5000])
    def test_seeded_chunks(self, n):
        vals, _ = trial_values(2718, n, 0, mc._rows_per_chunk(n))
        assert np.array_equal(record_counts(vals), _reference_record_counts(vals))

    def test_narrow_tiles_with_remainder(self):
        # Two full tiles and a short one, as a whole chunk and as the
        # prefix view of a wider one.
        for m in (2, 3, mc._NARROW_COLUMNS // 2 + 1, mc._NARROW_COLUMNS):
            rows = 2 * (mc._TILE_VALUES // m) + 123
            vals, _ = trial_values(99, m - 1, 0, rows)
            assert np.array_equal(record_counts(vals), _reference_record_counts(vals))
            view = trial_values(99, m, 0, rows)[0][:, :m]
            assert np.array_equal(record_counts(view), _reference_record_counts(view))

    def test_wide_tiles_and_blocks_with_remainders(self):
        # Rows past two tiles and columns past two blocks, neither a multiple.
        tile = mc._TILE_VALUES // mc._NARROW_COLUMNS
        width = mc._TILE_VALUES // tile
        vals, _ = trial_values(99, 2 * width + 7, 0, 2 * tile + 123)
        assert np.array_equal(record_counts(vals), _reference_record_counts(vals))
        for t in (width, 2 * width - 1, 2 * width):
            view = vals[:, : t + 1]
            assert np.array_equal(record_counts(view), _reference_record_counts(view))

    @pytest.mark.parametrize(
        "n, rows, tiles",
        [(8, 16 * (mc._TILE_VALUES // 9), 2), (200, 4 * (mc._TILE_VALUES // 64) + 5, 3)],
        ids=["narrow", "wide"],
    )
    def test_memory_stays_near_one_tile(self, n, rows, tiles):
        # Past the counts, the narrow path holds one column-major tile and
        # its running maximum; the wide path a tile's block and its
        # running maximum.
        vals, _ = trial_values(11, n, 0, rows)
        counts, peak = _traced_peak(lambda: record_counts(vals))
        assert peak - counts.nbytes < tiles * TILE_BYTES < vals.nbytes // 4

    def test_few_long_rows(self):
        # Three rows: blocks of _TILE_VALUES // 3 columns, three to a row.
        vals, _ = trial_values(5, 100_000, 0, 3)
        assert np.array_equal(record_counts(vals), _reference_record_counts(vals))
        view = vals[:1]
        assert np.array_equal(record_counts(view), _reference_record_counts(view))

    @pytest.mark.parametrize("small", [False, True])
    def test_adversarial_rows(self, small, monkeypatch):
        if small:  # blocks of 16 columns, so the skip is taken within a row
            monkeypatch.setattr(mc, "_TILE_VALUES", 80)
            monkeypatch.setattr(mc, "_NARROW_COLUMNS", 16)
        n = 150
        top = 2**64 - 1
        body = np.random.default_rng(4).choice(2**40, size=n, replace=False)
        body = body.astype(np.uint64) + 1
        descending = np.sort(body)[::-1]
        ascending = np.sort(body)
        vals = _rows(
            [*body, 0],  # X_n lies below everything
            [*body, top],  # X_n beats everything: one record
            [*descending, 0],  # every value is a record
            [*ascending, 0],  # the head's last value and X_n
            [top, *ascending],  # the first value stands above the rest
        )
        got = record_counts(vals)
        assert np.array_equal(got, _reference_record_counts(vals))
        assert got.tolist()[1:] == [1, n + 1, 2, 2]
        assert got.dtype == np.int64

    @pytest.mark.parametrize("small", [False, True])
    def test_ties_count_as_the_definition_does(self, small, monkeypatch):
        # Trial rows never tie; a tie with a later maximum counts as in the
        # suffix-max definition, on both paths and across blocks.
        if small:  # wide tiles of two rows by one narrow width
            monkeypatch.setattr(mc, "_TILE_VALUES", 2 * mc._NARROW_COLUMNS)
        for width in (9, 3 * mc._NARROW_COLUMNS):
            row = list(range(width))
            row[0] = row[width // 2] = row[-1] = width
            vals = _rows(row, [width, *range(width - 2), width])
            got = record_counts(vals)
            assert np.array_equal(got, _reference_record_counts(vals))
            assert got.tolist() == [3, 2]

    def test_single_column_and_empty_chunks(self):
        assert record_counts(_rows([5], [0])).tolist() == [1, 1]
        for width in (9, 2 * mc._NARROW_COLUMNS):
            empty = np.empty((0, width), dtype=np.uint64)
            assert record_counts(empty).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_distinct_integer_rows(self, data):
        width = data.draw(st.integers(1, 150))
        count = data.draw(st.integers(1, 6))
        elements = st.integers(0, 2**64 - 1)
        rows = [
            data.draw(st.lists(elements, min_size=width, max_size=width, unique=True))
            for _ in range(count)
        ]
        vals = _rows(*rows)
        expected = _reference_record_counts(vals)
        assert np.array_equal(record_counts(vals), expected)
        # Small tiles and blocks: several of each, and skipped blocks.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_TILE_VALUES", 2 * mc._NARROW_COLUMNS)
            assert np.array_equal(record_counts(vals), expected)


class TestVectorizedStatistics:
    @pytest.mark.parametrize("n", [*range(1, mc._SHORT_COLUMNS + 2), 23])
    def test_matches_stack_replay(self, n):
        vals, _ = trial_values(321, n, 0, 300)
        vec_b = final_break_counts(vals)
        vec_r = record_counts(vals)
        for r in range(vals.shape[0]):
            stats = run_trajectory([int(v) for v in vals[r]])
            assert stats.b_path[-1] == vec_b[r]
            assert stats.r_path[-1] == vec_r[r]


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = SimConfig(n=30, trials=5000, seed=77)
        a, b = simulate_b(cfg), simulate_b(cfg)
        assert a.counts == b.counts
        assert a.overflow == b.overflow
        assert a.meta["tie_redraws"] == b.meta["tie_redraws"]

    def test_worker_count_invariant(self):
        base = simulate_b(SimConfig(n=30, trials=5000, seed=77, workers=1))
        for w in (2, 3):
            other = simulate_b(
                SimConfig(n=30, trials=5000, seed=77, workers=w)
            )
            assert other.counts == base.counts
            assert other.overflow == base.overflow

    def test_chunking_invariant(self, monkeypatch):
        cfg = SimConfig(n=12, trials=2000, seed=13)
        base = simulate_b(cfg)
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 4096)
        tiny = simulate_b(cfg)
        assert tiny.counts == base.counts
        assert tiny.overflow == base.overflow

    def test_meta_differs_only_in_run_block(self):
        cfg = SimConfig(n=9, trials=1000, seed=5)
        a, b = simulate_b(cfg), simulate_b(cfg)
        ma = {k: v for k, v in a.meta.items() if k != "run"}
        mb = {k: v for k, v in b.meta.items() if k != "run"}
        assert ma == mb
        assert set(a.meta["run"]) == {
            "timestamp",
            "wall_time_s",
            "workers",
            "chunks",
            "trials_per_s",
            "numpy",
            "brokenrecords",
        }


class TestPinnedCounts:
    """The (seed, n) -> bit-identical contract, pinned at counts the
    sampler printed before its statistic and tie check were rewritten."""

    def test_break_counts_n500(self):
        pmf = simulate_b(SimConfig(n=500, trials=20000, seed=2024))
        assert [pmf.counts[k] for k in range(13)] == [
            10109, 4994, 2420, 1240, 618, 317, 144, 75, 46, 20, 13, 1, 3
        ]
        assert pmf.overflow == 0
        assert pmf.meta["tie_redraws"] == 0

    def test_break_counts_n8_two_workers(self):
        pmf = simulate_b(SimConfig(n=8, trials=20000, seed=808, workers=2))
        assert [pmf.counts[k] for k in range(9)] == [
            10036, 5164, 2784, 1389, 486, 121, 20, 0, 0
        ]
        assert pmf.overflow == 0
        assert pmf.meta["tie_redraws"] == 0

    def test_auto_checkpoints_n200(self):
        by_t = simulate_b_checkpoints(SimConfig(n=200, trials=20000, seed=200))
        pinned = {
            50: [10037, 5016, 2503, 1247, 650, 303, 148, 63, 26, 4, 1, 2, 0],
            100: [10009, 4991, 2538, 1238, 628, 324, 150, 67, 29, 17, 6, 1, 2],
            200: [10051, 5091, 2475, 1225, 607, 278, 136, 78, 39, 13, 5, 2, 0],
        }
        assert sorted(by_t) == sorted(pinned)
        for t, counts in pinned.items():
            assert [by_t[t].counts[k] for k in range(13)] == counts
            assert by_t[t].overflow == 0
            assert by_t[t].meta["tie_redraws"] == 0

    def test_record_counts_n50(self):
        pmf = simulate_r(SimConfig(n=50, trials=20000, seed=5050))
        counts = [pmf.counts[r] for r in range(1, 52)]
        assert counts[:13] == [
            403, 1764, 3601, 4691, 4237, 2832, 1470, 682, 226, 61, 25, 7, 1
        ]
        assert not any(counts[13:])
        assert pmf.meta["tie_redraws"] == 0


class TestChunkBudget:
    """Chunks of about 2**19 values: a bounded peak, and counts that do
    not depend on the budget."""

    def test_a_chunk_fills_the_budget(self):
        budget = mc._TARGET_CHUNK_VALUES
        assert budget == 2**19
        for n in [*range(1, 4097), 2**17 - 1, 2**18 - 4, 2**19 - 5, 2**19 - 1]:
            rows, w = mc._rows_per_chunk(n), mc._words_per_trial(n)
            assert rows * w <= budget < (rows + 1) * w, n

    def test_a_row_over_the_budget_is_its_own_chunk(self):
        for n in (2**19, 2**20, 2**21 + 3, 2**27 - 1):
            assert mc._words_per_trial(n) > mc._TARGET_CHUNK_VALUES
            assert mc._rows_per_chunk(n) == 1

    def test_simulation_peak_stays_bounded(self):
        # 20,000 trials at n = 500 take 20 chunks; at 2**23 values per
        # chunk the same run peaked at about 104 MiB.
        pmf, peak = _traced_peak(lambda: simulate_b(SimConfig(n=500, trials=20000, seed=2024)))
        assert pmf.meta["run"]["chunks"] == 20
        assert peak < 16 * 2**20

    @staticmethod
    def _at_old_budget(monkeypatch, run):
        new = run()
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 2**23)
        old = run()
        monkeypatch.undo()
        return new, old

    def test_checkpoints_match_the_old_budget(self, monkeypatch):
        cfg = SimConfig(n=500, trials=40000, seed=9)
        new, old = self._at_old_budget(monkeypatch, lambda: simulate_b_checkpoints(cfg))
        assert new[500].meta["run"]["chunks"] == 39
        assert old[500].meta["run"]["chunks"] == 3
        assert sorted(new) == sorted(old)
        for t in new:
            assert new[t].counts == old[t].counts
            assert new[t].overflow == old[t].overflow
            assert new[t].meta["tie_redraws"] == old[t].meta["tie_redraws"]

    def test_record_counts_match_the_old_budget(self, monkeypatch):
        cfg = SimConfig(n=64, trials=250000, seed=64)
        new, old = self._at_old_budget(monkeypatch, lambda: simulate_r(cfg))
        assert new.meta["run"]["chunks"] == 33
        assert old.meta["run"]["chunks"] == 3
        assert new.counts == old.counts
        assert new.meta["tie_redraws"] == old.meta["tie_redraws"]


class TestRunMeta:
    def test_chunks_and_throughput(self, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 4096)
        cfg = SimConfig(n=12, trials=2000, seed=13)
        chunks = -(-2000 // mc._rows_per_chunk(12))
        assert chunks > 1
        runs = [
            simulate_b(cfg).meta["run"],
            simulate_r(cfg).meta["run"],
            *(p.meta["run"] for p in simulate_b_checkpoints(cfg).values()),
        ]
        for run in runs:
            assert run["chunks"] == chunks
            assert run["trials_per_s"] > 0

    def test_versions(self):
        cfg = SimConfig(n=5, trials=10, seed=1)
        runs = [
            simulate_b(cfg).meta["run"],
            simulate_r(cfg).meta["run"],
            simulate_trajectory_audit(cfg).run,
        ]
        for run in runs:
            assert run["numpy"] == np.__version__
            assert run["brokenrecords"] == brokenrecords.__version__


class TestRowCap:
    def test_cap_boundary(self):
        assert 8 * mc._words_per_trial(2**27 - 1) == mc._MAX_ROW_BYTES
        with pytest.raises(CapacityError):
            mc._words_per_trial(2**27)


class TestSimulateB:
    def test_coin_flip_first_step(self):
        pmf = simulate_b(SimConfig(n=1, trials=10**6, seed=101))
        assert abs(pmf.frequency(0) - 0.5) < 0.002
        assert pmf.counts[0] + pmf.counts[1] == 10**6

    def test_matches_oracle_n4(self):
        pmf = simulate_b(SimConfig(n=4, trials=10**6, seed=202))
        exact = oracle_pmf_b(4)
        for k in range(5):
            assert abs(pmf.frequency(k) - float(exact.prob(k))) < 0.003

    def test_support_clipped_to_n(self):
        pmf = simulate_b(SimConfig(n=3, trials=500, seed=9))
        assert set(pmf.counts) == {0, 1, 2, 3}
        assert pmf.overflow == 0

    def test_overflow_pooling(self):
        pmf = simulate_b(SimConfig(n=40, trials=2000, seed=55, kmax=3))
        assert set(pmf.counts) == {0, 1, 2, 3}
        assert pmf.overflow > 0
        assert sum(pmf.counts.values()) + pmf.overflow == 2000
        with pytest.raises(ValueError):
            pmf.mean()

    def test_meta_contents(self):
        pmf = simulate_b(SimConfig(n=6, trials=100, seed=1))
        meta = pmf.meta
        assert meta["generator"] == mc.GENERATOR
        assert meta["words_per_trial"] % 4 == 0
        assert meta["words_per_trial"] >= 7
        assert meta["mode"] == "break-count"
        assert meta["seed"] == 1


class TestSimulateR:
    def test_small_n_against_oracle(self):
        pmf = simulate_r(SimConfig(n=2, trials=10**5, seed=42))
        exact = oracle_pmf_r(2)
        for r in (1, 2, 3):
            assert abs(pmf.frequency(r) - float(exact.prob(r))) < 0.005
        assert pmf.overflow == 0

    def test_mean_tracks_harmonic_growth(self):
        pmf = simulate_r(SimConfig(n=1000, trials=10**5, seed=303))
        target = float(expected_record_count(1000))
        assert abs(pmf.mean() - target) < 0.05

    def test_support_range(self):
        pmf = simulate_r(SimConfig(n=4, trials=1000, seed=8))
        assert set(pmf.counts) == {1, 2, 3, 4, 5}


class TestCheckpoints:
    def test_default_schedule(self):
        assert default_checkpoints(100) == (25, 50, 100)
        assert default_checkpoints(2) == (1, 2)
        assert default_checkpoints(1) == (1,)

    def test_final_checkpoint_matches_plain_run(self):
        cfg = SimConfig(n=60, trials=4000, seed=19)
        by_t = simulate_b_checkpoints(cfg)
        plain = simulate_b(cfg)
        final = by_t[60]
        assert final.counts == plain.counts
        assert final.overflow == plain.overflow

    def test_each_checkpoint_full_sample(self):
        cfg = SimConfig(n=40, trials=2000, seed=3)
        by_t = simulate_b_checkpoints(cfg, checkpoints=(5, 20, 40))
        assert sorted(by_t) == [5, 20, 40]
        for t, pmf in by_t.items():
            assert pmf.n == t
            assert sum(pmf.counts.values()) + pmf.overflow == 2000
            assert pmf.meta["checkpoint"] == t

    def test_checkpoint_law_is_step_t_law(self):
        # The stream spends its first t + 1 draws on the prefix, so the
        # checkpoint tally must match a fresh horizon-t run of the same
        # stream prefix statistically; pin it to the coin-flip law.
        cfg = SimConfig(n=80, trials=20000, seed=23)
        by_t = simulate_b_checkpoints(cfg, checkpoints=(1, 80))
        assert abs(by_t[1].frequency(0) - 0.5) < 0.02

    def test_validation(self):
        cfg = SimConfig(n=10, trials=10, seed=0)
        with pytest.raises(ValueError):
            simulate_b_checkpoints(cfg, checkpoints=(0, 5))
        with pytest.raises(ValueError):
            simulate_b_checkpoints(cfg, checkpoints=(5, 11))
        with pytest.raises(ValueError):
            simulate_b_checkpoints(cfg, checkpoints=())

    def test_worker_invariance(self):
        a = simulate_b_checkpoints(
            SimConfig(n=24, trials=3000, seed=7, workers=1)
        )
        b = simulate_b_checkpoints(
            SimConfig(n=24, trials=3000, seed=7, workers=3)
        )
        assert sorted(a) == sorted(b)
        for t in a:
            assert a[t].counts == b[t].counts


class TestAudit:
    def test_passes_on_clean_run(self):
        report = simulate_trajectory_audit(SimConfig(n=50, trials=200, seed=31))
        assert isinstance(report, AuditReport)
        assert report.steps_checked == 200 * 50
        assert report.trials == 200

    def test_check_trajectory_rejects_bad_start(self):
        stats = _stats(n=1, r_path=[2, 2], b_path=[1], idx=[(1, 0.5)])
        with pytest.raises(InvariantError) as exc:
            check_trajectory(stats, [0.9, 0.5], seed=1, trial=4)
        assert exc.value.trial == 4

    def test_check_trajectory_rejects_broken_recursion(self):
        stats = _stats(n=1, r_path=[1, 3], b_path=[0], idx=[(0, 0.9), (1, 0.5)])
        with pytest.raises(InvariantError):
            check_trajectory(stats, [0.9, 0.5])

    def test_check_trajectory_rejects_stale_top(self):
        stats = _stats(
            n=2,
            r_path=[1, 2, 3],
            b_path=[0, 0],
            idx=[(0, 0.9), (1, 0.5)],  # newest entry is not observation 2
        )
        with pytest.raises(InvariantError):
            check_trajectory(stats, [0.9, 0.5, 0.3])

    def test_check_trajectory_rejects_count_mismatch(self):
        stats = _stats(
            n=2,
            r_path=[1, 2, 3],
            b_path=[0, 0],
            idx=[(0, 0.9), (2, 0.3)],  # two entries, path claims three
        )
        with pytest.raises(InvariantError):
            check_trajectory(stats, [0.9, 0.5, 0.3])

    def test_check_trajectory_rejects_scan_disagreement(self):
        stats = _stats(n=1, r_path=[1, 1], b_path=[1], idx=[(1, 0.3)])
        with pytest.raises(InvariantError) as exc:
            check_trajectory(stats, [0.5, 0.3])
        assert "scan" in str(exc.value)

    def test_clean_stats_pass_check(self):
        vals = [0.31, 0.9, 0.12, 0.77, 0.5]
        stats = run_trajectory(vals)
        check_trajectory(stats, vals)


class TestAuditCatchesPlantedFaults:
    """Each planted fault in one trial must stop the replay at that trial."""

    cfg = SimConfig(n=20, trials=30, seed=41)
    planted = 7

    def _off_by_one(self, real):
        def fake(vals):
            out = real(vals).copy()
            out[self.planted] += 1
            return out

        return fake

    def _assert_caught(self, needle):
        with pytest.raises(InvariantError) as exc:
            simulate_trajectory_audit(self.cfg)
        assert exc.value.trial == self.planted
        assert exc.value.seed == self.cfg.seed
        assert needle in str(exc.value)
        return exc.value

    def test_break_count_off_by_one(self, monkeypatch):
        monkeypatch.setattr(
            mc, "final_break_counts", self._off_by_one(mc.final_break_counts)
        )
        self._assert_caught("vectorized break count")

    def test_record_count_off_by_one(self, monkeypatch):
        monkeypatch.setattr(mc, "record_counts", self._off_by_one(mc.record_counts))
        self._assert_caught("vectorized record count")

    def test_scan_drops_a_record(self, monkeypatch):
        real = mc.scan_distinct
        calls = []

        def fake(values):
            scan = real(values)
            calls.append(len(scan))
            if len(calls) - 1 == self.planted:
                return RecordStack(list(scan)[1:])
            return scan

        monkeypatch.setattr(mc, "scan_distinct", fake)
        self._assert_caught("definitional scan")
        assert len(calls) == self.planted + 1

    def test_eviction_fault_in_the_stack(self, monkeypatch):
        # Trial 7's stack puts the first record it evicts back in place, so
        # its size after that step is one more than its breaks allow.
        real = records.RecordStack.extend
        calls = []
        faulted = []

        def faulty(stack, values):
            calls.append(None)
            if len(calls) - 1 != self.planted:
                return real(stack, values)
            breaks, sizes = [], []
            for t, v in enumerate(values):
                if not faulted and stack._val and stack._val[-1] < v:
                    beaten = stack._idx[-1], stack._val[-1]
                    (b,), _ = real(stack, (v,))
                    stack._idx.insert(-1, beaten[0])
                    stack._val.insert(-1, beaten[1])
                    faulted.append(t)
                else:
                    (b,), _ = real(stack, (v,))
                breaks.append(b)
                sizes.append(len(stack._val))
            return breaks, sizes

        monkeypatch.setattr(records.RecordStack, "extend", faulty)
        exc = self._assert_caught("record count recursion")
        assert exc.step == faulted[0] >= 1
        assert len(calls) == self.planted + 1

    def test_replay_builds_no_record_entry(self, monkeypatch):
        built = []

        class CountingEntry(records.RecordEntry):
            def __init__(self, index, value):
                built.append(index)
                super().__init__(index, value)

        monkeypatch.setattr(records, "RecordEntry", CountingEntry)
        report = simulate_trajectory_audit(SimConfig(n=100, trials=50, seed=41))
        assert report.steps_checked == 100 * 50
        assert built == []
        # The counter is live: reading ``entries`` builds one per record.
        assert len(records.records_by_scan([0.2, 0.9, 0.5]).entries) == 2
        assert built == [1, 2]

    def test_every_trial_runs_through_each_check(self, monkeypatch):
        seen = {"run_trajectory": 0, "check_trajectory": 0, "scan_distinct": 0}

        def counted(name):
            real = getattr(mc, name)

            def wrapper(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in seen:
            monkeypatch.setattr(mc, name, counted(name))
        report = simulate_trajectory_audit(self.cfg)
        assert seen == dict.fromkeys(seen, self.cfg.trials)
        assert report.steps_checked == self.cfg.n * self.cfg.trials

    def test_each_row_is_screened_and_scanned_once(self, monkeypatch):
        # run_trajectory screens the row; the scan of check_trajectory
        # reuses that screen instead of running its own.
        screened, scanned = [], []
        real_screen, real_scan = records._check_distinct, records.scan_distinct

        def screen(values):
            screened.append(len(values))
            return real_screen(values)

        def scan(values):
            scanned.append(len(values))
            return real_scan(values)

        monkeypatch.setattr(records, "_check_distinct", screen)
        monkeypatch.setattr(records, "scan_distinct", scan)
        monkeypatch.setattr(mc, "scan_distinct", scan)
        simulate_trajectory_audit(self.cfg)
        rows = [self.cfg.n + 1] * self.cfg.trials
        assert screened == rows
        assert scanned == rows

    def test_run_block(self, monkeypatch):
        monkeypatch.setattr(mc, "_TILE_VALUES", 4 * mc._words_per_trial(20))
        a = simulate_trajectory_audit(self.cfg)
        b = simulate_trajectory_audit(self.cfg)
        assert a == b
        assert set(a.run) == {
            "timestamp",
            "wall_time_s",
            "workers",
            "chunks",
            "steps_per_s",
            "numpy",
            "brokenrecords",
        }
        assert a.run["chunks"] == 8  # 30 trials, 4 per chunk


def _within(seconds, fn):
    """``fn()`` on a daemon thread; fails the test if it runs past ``seconds``."""
    out = {}

    def run():
        try:
            out["result"] = fn()
        except BaseException as exc:  # handed to the test thread below
            out["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


class TestAuditInWorkerProcesses:
    """Forked workers give the in-process report, and its failures."""

    n, trials, seed = 20, 30, 41
    rows = 5  # rows per range, so the 30 trials span 6 ranges

    @pytest.fixture(autouse=True)
    def _small_ranges(self, monkeypatch):
        monkeypatch.setattr(mc, "_TILE_VALUES", self.rows * mc._words_per_trial(self.n))
        # Two CPUs even on a one-CPU host, so workers=2 forks.
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)

    def _audit(self, workers):
        cfg = SimConfig(n=self.n, trials=self.trials, seed=self.seed, workers=workers)
        try:
            return _within(60, lambda: simulate_trajectory_audit(cfg))
        finally:
            assert multiprocessing.active_children() == []

    def _plant(self, monkeypatch, *trials):
        """``final_break_counts`` one too high on the rows of ``trials``."""
        planted = [trial_values(self.seed, self.n, t, t + 1)[0][0] for t in trials]
        real = mc.final_break_counts

        def fake(vals):
            out = real(vals)
            for row in planted:
                out[(vals == row).all(axis=1)] += 1
            return out

        monkeypatch.setattr(mc, "final_break_counts", fake)

    def test_reports_agree(self):
        serial, forked = self._audit(1), self._audit(2)
        assert serial == forked
        assert serial.steps_checked == self.n * self.trials
        assert (serial.run["workers"], forked.run["workers"]) == (1, 2)
        assert serial.run["chunks"] == forked.run["chunks"] == 6

    # A second planted trial in the same range, or in a later one.
    @pytest.mark.parametrize("planted", [(7,), (7, 8), (7, 27)])
    def test_the_lowest_planted_trial_is_reported(self, planted, monkeypatch):
        self._plant(monkeypatch, *planted)
        caught = []
        for workers in (1, 2):
            with pytest.raises(InvariantError) as exc:
                self._audit(workers)
            assert type(exc.value) is InvariantError
            caught.append((exc.value.seed, exc.value.trial, exc.value.step, str(exc.value)))
        message = "vectorized break count disagrees with the stack"
        assert caught == [(self.seed, 7, self.n, message)] * 2

    def test_a_dead_worker_stops_the_run_at_the_summed_prefix(self, monkeypatch):
        parent, real = os.getpid(), mc.trial_values

        def dying(seed, n, t0, t1):
            if t0 == 2 * self.rows:
                if os.getpid() == parent:
                    raise RuntimeError("the third range ran in the test process")
                time.sleep(0.5)  # ranges 0 and 1 are summed meanwhile
                os._exit(1)
            return real(seed, n, t0, t1)

        monkeypatch.setattr(mc, "trial_values", dying)
        with pytest.raises(PartialResultError) as exc:
            self._audit(2)
        assert exc.value.completed == 2 * self.rows
        assert isinstance(exc.value.__cause__, BrokenProcessPool)

    def test_without_fork_the_audit_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        report = self._audit(2)
        assert report == self._audit(1)
        assert report.run["workers"] == 1


def _stats(n, r_path, b_path, idx):
    stack = RecordStack([RecordEntry(i, v) for i, v in idx])
    return TrajectoryStats(
        n=n, r_path=r_path, b_path=b_path, final_records=stack
    )


def _fail_from(threshold):
    """``trial_values`` with a fault injected in every chunk from ``threshold``."""
    real = mc.trial_values

    def wrapper(seed, n, t0, t1):
        if t0 >= threshold:
            raise RuntimeError("injected fault")
        return real(seed, n, t0, t1)

    return wrapper


class TestPartialFailure:
    def test_single_worker_reports_completed(self, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 1024)
        rows = mc._rows_per_chunk(7)
        monkeypatch.setattr(mc, "trial_values", _fail_from(rows))
        cfg = SimConfig(n=7, trials=rows * 4, seed=3)
        with pytest.raises(PartialResultError) as exc:
            simulate_b(cfg)
        assert exc.value.completed == rows
        assert isinstance(exc.value.__cause__, RuntimeError)

    def test_threaded_workers_report_partial(self, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 1024)
        rows = mc._rows_per_chunk(7)
        monkeypatch.setattr(mc, "trial_values", _fail_from(rows))
        cfg = SimConfig(n=7, trials=rows * 4, seed=3, workers=2)
        with pytest.raises(PartialResultError) as exc:
            simulate_b(cfg)
        # Chunks are summed in trial order, so the finished first chunk
        # always counts, however the threads interleave.
        assert exc.value.completed == rows
        assert isinstance(exc.value.__cause__, RuntimeError)


class _LazyFuture:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        self.pool.outstanding -= 1
        return self.fn(*self.args)

    def cancel(self):
        self.pool.outstanding -= 1
        return True


class _LazyPool:
    """Stands in for ThreadPoolExecutor: a chunk runs when its result is
    read, so no thread starts and the futures in flight can be counted."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.outstanding = self.peak = self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        return _LazyFuture(self, fn, args)


class TestScheduler:
    def _lazy_pools(self, monkeypatch):
        pools = []

        def make(max_workers):
            pools.append(_LazyPool(max_workers))
            return pools[-1]

        monkeypatch.setattr(mc, "ThreadPoolExecutor", make)
        return pools

    def _lazy_run(self, monkeypatch, cfg):
        pools = self._lazy_pools(monkeypatch)
        pmf = simulate_b(cfg)
        (pool,) = pools
        return pmf, pool

    @pytest.mark.parametrize("workers", [1, 2])
    def test_window_is_two_chunks_per_thread(self, workers, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 1024)
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        rows = mc._rows_per_chunk(7)
        cfg = SimConfig(n=7, trials=rows * 11 + 3, seed=3, workers=workers)
        base = simulate_b(cfg)
        lazy, pool = self._lazy_run(monkeypatch, cfg)
        assert pool.max_workers == workers
        assert pool.submitted == 12
        assert pool.peak == 2 * workers
        assert pool.outstanding == 0
        assert lazy.counts == base.counts
        assert lazy.overflow == base.overflow

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        cfg = SimConfig(n=7, trials=500, seed=3, workers=10**6)
        pmf, pool = self._lazy_run(monkeypatch, cfg)
        assert pool.max_workers == 2
        assert pool.peak <= 4
        assert pmf.meta["run"]["workers"] == 2

    def test_workers_clamped_to_the_affinity_mask(self, monkeypatch):
        # CPUs outside the mask count in os.cpu_count() but run nothing.
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg = SimConfig(n=7, trials=500, seed=3, workers=10**6)
        pmf, pool = self._lazy_run(monkeypatch, cfg)
        assert pool.max_workers == 3
        assert pmf.meta["run"]["workers"] == 3

    def test_failure_cancels_the_queued_chunks(self, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 1024)
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)
        rows = mc._rows_per_chunk(7)
        monkeypatch.setattr(mc, "trial_values", _fail_from(2 * rows))
        cfg = SimConfig(n=7, trials=rows * 10, seed=3, workers=2)
        pools = self._lazy_pools(monkeypatch)
        with pytest.raises(PartialResultError) as exc:
            simulate_b(cfg)
        assert exc.value.completed == 2 * rows
        (pool,) = pools
        # Two chunks summed, the failing third, and a refilled window of
        # three behind it, which are cancelled.
        assert pool.submitted == 6
        assert pool.outstanding == 0
