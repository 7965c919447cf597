"""Unit tests for the vectorized simulator and its audit machinery.

Statistical assertions run at frozen seeds whose margins were confirmed
to sit far inside the stated tolerances, so no test here is flaky.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

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
    RecordStack,
    SimConfig,
    TieError,
    TrajectoryStats,
    UsageError,
    check_trajectory,
    default_checkpoints,
    exact_pmf_b,
    expected_record_count,
    final_break_counts,
    geometric_limit,
    oracle_pmf_b,
    oracle_pmf_r,
    run_trajectory,
    simulate_b,
    simulate_b_checkpoints,
    simulate_b_suffix,
    simulate_r,
    simulate_trajectory_audit,
    trial_values,
)
from brokenrecords.reports import chi2_sf, chi_square_fit
from paper_sums import linear_stirling_row


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

    @pytest.mark.parametrize("name", ["n", "trials", "seed", "kmax", "workers"])
    @pytest.mark.parametrize("bad", [1.0, "3"], ids=repr)
    def test_non_integer_fields_are_refused(self, name, bad):
        kwargs = {"n": 8, "trials": 10, "seed": 1, "kmax": 4, "workers": 1, name: bad}
        with pytest.raises(UsageError, match=f"^{name} must be an integer, got"):
            SimConfig(**kwargs)

    def test_numpy_integers_are_kept_as_python_ints(self):
        fields = ("n", "trials", "seed", "kmax", "workers")
        cfg = SimConfig(
            n=np.int64(8), trials=np.uint32(10), seed=np.uint64(2**64 - 1),
            kmax=np.int8(4), workers=np.int16(1),
        )
        assert cfg == SimConfig(n=8, trials=10, seed=2**64 - 1, kmax=4, workers=1)
        assert all(type(getattr(cfg, name)) is int for name in fields)

    def test_a_numpy_seed_redraws_on_the_seed_key(self, planted_ties):
        # Each redraw is keyed by seed + (attempt << 64), past uint64; the
        # planted trials 0, 97, 194 and 291 are redrawn once each.
        plain = simulate_b(SimConfig(n=8, trials=300, seed=17))
        numpy = simulate_b(SimConfig(n=8, trials=300, seed=np.uint64(17)))
        assert numpy.counts == plain.counts
        assert numpy.meta["tie_redraws"] == plain.meta["tie_redraws"] == 4

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
        assert pmf.frequency(1) == 0.3
        assert abs(sum(map(pmf.frequency, pmf.counts)) - 1.0) < 1e-12

    def test_mean_requires_no_overflow(self):
        pmf = self._pmf()
        assert pmf.mean() == pytest.approx(0.7)
        spilled = self._pmf(counts={0: 5, 1: 3, 2: 1}, overflow=1)
        with pytest.raises(ValueError):
            spilled.mean()


def _draw_from(monkeypatch, first, seed, n, t0):
    """``trial_values`` of the trials from t0 whose first draw is ``first``:
    ``_raw_rows`` hands it over at attempt 0 and draws every redraw."""
    raw = mc._raw_rows

    def planted(seed, n, a, b, attempt):
        if attempt == 0:
            return first[a - t0 : b - t0].copy()
        return raw(seed, n, a, b, attempt)

    monkeypatch.setattr(mc, "_raw_rows", planted)
    return trial_values(seed, n, t0, t0 + len(first))


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

    def test_planted_tie_is_redrawn(self, monkeypatch):
        seed, n, t0 = 11, 5, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        keep0, keep2 = vals[0].copy(), vals[2].copy()
        vals[1][2] = vals[1][3]  # fabricate a collision in trial t0+1
        vals, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
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
    def test_half_collision_alone_is_not_redrawn(self, shift, monkeypatch):
        # Copy one 32-bit half of a value into another column and flip a
        # bit of the other half: the halves collide, the values differ.
        seed, n, t0 = 11, 40, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        half = np.uint64(0xFFFFFFFF << shift)
        other = np.uint64(1 << (32 - shift))
        vals[1][7] = (vals[1][20] & half) | ((vals[1][20] ^ other) & ~half)
        assert vals[1][7] != vals[1][20]
        assert not mc._row_has_tie(vals[1])
        drawn, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
        assert redraws == 0
        assert np.array_equal(drawn, vals)

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
        drawn, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
        assert redraws == 0
        assert len(checked) == 1
        assert np.array_equal(checked[0], vals[1])
        assert np.array_equal(drawn, vals)

    def test_tie_screen_memory_stays_under_the_chunk(self, monkeypatch):
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
        flagged, peak = _traced_peak(lambda: mc._half_word_screen(vals))
        assert flagged.tolist() == list(range(64))
        assert peak < vals.nbytes
        drawn, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
        assert redraws == 0
        assert np.array_equal(drawn, vals)

    @pytest.mark.parametrize("col", [0, 20, 40], ids=["first", "middle", "last"])
    def test_true_tie_at_any_column_is_redrawn(self, col, monkeypatch):
        seed, n, t0 = 11, 40, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        keep0, keep2 = vals[0].copy(), vals[2].copy()
        vals[1][col] = vals[1][(col + 13) % (n + 1)]
        vals, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
        row, attempts = self._first_clean_attempt(seed, n, t0 + 1)
        assert redraws == attempts
        assert np.array_equal(vals[1], row)
        assert np.array_equal(vals[0], keep0)
        assert np.array_equal(vals[2], keep2)

    def test_a_true_tie_in_every_row_is_redrawn(self, monkeypatch):
        # The screen names rows from flat hits of the (rows x n) comparison;
        # a tie in every row, first and last included and at every column,
        # shows a hit mapped to the wrong row or a row dropped.
        seed, n, t0, rows = 11, 40, 30, 50
        vals, _ = trial_values(seed, n, t0, t0 + rows)
        for i in range(rows):
            vals[i][i % (n + 1)] = vals[i][(i + 7) % (n + 1)]
        vals, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
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

    def _redraws_exactly(self, monkeypatch, n, rows, tied):
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
        drawn, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
        assert redraws == total
        assert np.array_equal(drawn, clean)

    def test_ties_at_tile_edges_are_redrawn(self, monkeypatch):
        # Rows on both sides of each tile boundary and in the last, short tile.
        n = 500
        size = mc._TILE_VALUES // (n + 1)
        rows = 2 * size + 7
        self._redraws_exactly(
            monkeypatch, n, rows, [0, size - 1, size, 2 * size - 1, 2 * size, rows - 1]
        )

    def test_a_row_wider_than_a_tile_is_its_own_tile(self, monkeypatch):
        n = mc._TILE_VALUES + 3
        self._redraws_exactly(monkeypatch, n, 4, [1, 3])

    def test_screen_memory_stays_near_one_tile(self):
        # Sorting the half words of the whole chunk at once would take half
        # its bytes; the screen holds the half words of one tile.
        n = 500
        vals, _ = trial_values(11, n, 0, mc._rows_per_chunk(n))
        _, peak = _traced_peak(lambda: mc._half_word_screen(vals))
        assert peak < TILE_BYTES < vals.nbytes // 4


class TestShortRowTieScreen:
    """The half-word screen of rows of at most 12 values, thousands to a
    tile."""

    _first_clean_attempt = staticmethod(TestTrialValues._first_clean_attempt)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_a_true_tie_at_every_column_pair_is_redrawn(self, m, monkeypatch, planted_ties):
        seed, n, t0 = 11, m - 1, 30
        clean, _ = trial_values(seed, n, t0, t0 + 3)
        row, attempts = self._first_clean_attempt(seed, n, t0 + 1)
        for i in range(m):
            for j in range(i + 1, m):
                vals = clean.copy()
                vals[1][i] = vals[1][j]
                with monkeypatch.context() as mp:
                    vals, redraws = _draw_from(mp, vals, seed, n, t0)
                assert redraws == attempts, (i, j)
                assert np.array_equal(vals[1], row), (i, j)
                assert np.array_equal(vals[[0, 2]], clean[[0, 2]]), (i, j)
        # A range that starts at a trial tied in its first draw: trial 970
        # = 10 * 97 of the planted draws, as trial_values draws it.
        vals, redraws = trial_values(3, n, 970, 971)
        row, attempts = self._first_clean_attempt(3, n, 970)
        assert redraws == attempts == 1
        assert np.array_equal(vals[0], row)

    def test_ties_at_tile_edges_are_redrawn(self, monkeypatch):
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
        drawn, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
        assert redraws == total
        assert np.array_equal(drawn, clean)

    @pytest.mark.parametrize("shift", [32], ids=["high-half"])
    @pytest.mark.parametrize("m", [2, 9, 12])
    def test_half_collision_is_checked_and_kept(self, m, shift, monkeypatch):
        # Equal high halves flag the row, since the screen sorts the high
        # half on little-endian platforms; the exact check sees no tie and
        # keeps it.
        seed, n, t0 = 11, m - 1, 30
        vals, _ = trial_values(seed, n, t0, t0 + 3)
        half = np.uint64(0xFFFFFFFF << shift)
        other = np.uint64(1 << (32 - shift))
        vals[1][0] = (vals[1][n] & half) | ((vals[1][n] ^ other) & ~half)
        assert vals[1][0] != vals[1][n]
        assert vals[1][0] >> np.uint64(32) == vals[1][n] >> np.uint64(32)
        checked = []
        exact = mc._row_has_tie
        monkeypatch.setattr(
            mc, "_row_has_tie", lambda r: checked.append(r.copy()) or exact(r)
        )
        drawn, redraws = _draw_from(monkeypatch, vals, seed, n, t0)
        assert redraws == 0
        assert len(checked) == 1
        assert np.array_equal(checked[0], vals[1])
        assert np.array_equal(drawn, vals)

    def test_screen_memory_stays_near_one_tile(self):
        # The screen holds the half words of one tile and a flag per row,
        # however many tiles the rows span.
        n = 8
        vals, _ = trial_values(11, n, 0, 16 * (mc._TILE_VALUES // (n + 1)))
        _, peak = _traced_peak(lambda: mc._half_word_screen(vals))
        assert peak < 2 * TILE_BYTES < vals.nbytes // 4


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


def _python_break_count(row, t):
    """Records of ``row[:t]`` broken by ``row[t]``, on Python integers."""
    values = [int(v) for v in row[: t + 1]]
    best, count = -1, 0
    for v in reversed(values[:-1]):
        if v > best:
            count += v < values[-1]
            best = v
    return count


ONE = np.uint64(1)


def _plant_bit_0_neighbours(row, r):
    """Make two values of ``row`` differ only in bit 0, where the break-count
    walk compares them; ``r`` picks where.

    Even ``r``: X_{n-1} = X_n - 1, the first comparison of every walk.
    Odd ``r`` (rows of three values or more): column j = r mod (n - 1) is
    made one above the running maximum of the columns after it, and X_n
    the largest value, so column j is a record that X_n breaks.
    """
    n = row.size - 1
    if r % 2 == 0 or n < 2:
        row[n] |= ONE
        row[n - 1] = row[n] ^ ONE
        return
    j = r % (n - 1)
    hi = j + 1 + int(np.argmax(row[j + 1 : n]))
    row[hi] &= ~ONE
    row[j] = row[hi] | ONE
    row[n] = ~np.uint64(0)


class TestTileEdgeRows:
    """Rows planted at the tile edges of ``_break_counts``, as the sampler
    and the audit call it: every count is exact and every tie is redrawn."""

    _first_clean_attempt = staticmethod(TestTrialValues._first_clean_attempt)
    seed = 11

    @staticmethod
    def _tile_edges(m, rows):
        size = mc._TILE_VALUES // m
        return [0, 1, size - 1, size, 2 * size - 1, 2 * size, rows - 1]

    def _planted_run(self, monkeypatch, m, plant):
        """``_break_counts`` of three tiles of four rows and a short one at
        width m, with ``plant(row, r)`` applied to the first draw of the rows
        at the tile edges."""
        monkeypatch.setattr(mc, "_TILE_VALUES", 4 * m)
        n, rows = m - 1, 3 * 4 + 3
        edges = self._tile_edges(m, rows)
        raw = mc._raw_rows

        def planted(seed, n, t0, t1, attempt):
            out = raw(seed, n, t0, t1, attempt)
            if attempt == 0:
                for r in edges:
                    if t0 <= r < t1:
                        plant(out[r - t0], r)
            return out

        monkeypatch.setattr(mc, "_raw_rows", planted)
        ts = tuple(range(1, n + 1))
        vals, counts, redraws = mc._break_counts(self.seed, n, 0, rows, ts)
        for i, t in enumerate(ts):
            python = [_python_break_count(row, t) for row in vals]
            assert counts[i].tolist() == python, t
        return vals, counts, redraws, edges, planted

    @pytest.mark.parametrize("m", range(2, 13))
    def test_bit_0_neighbours_are_counted_exactly(self, m, monkeypatch):
        vals, _, redraws, _, planted = self._planted_run(
            monkeypatch, m, _plant_bit_0_neighbours
        )
        assert redraws == 0
        assert np.array_equal(vals, planted(self.seed, m - 1, 0, vals.shape[0], 0))

    @pytest.mark.parametrize("m", [2, 9, 12])
    def test_true_ties_are_redrawn_with_the_same_attempts(self, m, monkeypatch):
        def tie(row, r):
            row[r % (m - 1)] = row[m - 1]

        vals, _, redraws, edges, _ = self._planted_run(monkeypatch, m, tie)
        total = 0
        for r in edges:
            row, attempts = self._first_clean_attempt(self.seed, m - 1, r)
            assert np.array_equal(vals[r], row), r
            total += attempts
        assert redraws == total


def _reference_final_break_counts(vals):
    """Definitional form: a head column is a current record iff it equals
    the suffix maximum of the head; the last value breaks those below it."""
    head = vals[:, :-1]
    last = vals[:, -1:]
    smax = np.maximum.accumulate(head[:, ::-1], axis=1)[:, ::-1]
    return ((head == smax) & (head < last)).sum(axis=1)


def _rows(*rows):
    return np.array(rows, dtype=np.uint64)


class _Unreadable(np.ndarray):
    """An array that raises when indexed: a count that refuses it on its
    shape alone, before it slices any values, passes."""

    def __getitem__(self, key):
        raise AssertionError("values read before the shape was checked")


def _unreadable(rows, m):
    return np.zeros((rows, m), dtype=np.uint64).view(_Unreadable)


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

    @pytest.mark.parametrize("m", range(2, 13))
    def test_short_row_tiles(self, m):
        # At least one full tile of rows and a short one, and every prefix
        # view of them.
        vals, _ = trial_values(2718, m - 1, 0, 2 * (mc._TILE_VALUES // m) + 77)
        for t in range(1, m):
            view = vals[:, : t + 1]
            assert np.array_equal(
                final_break_counts(view), _reference_final_break_counts(view)
            )

    @pytest.mark.parametrize("m", [0, 1])
    def test_rows_with_no_step_are_refused(self, m):
        # A row of one value has no step: run_trajectory gives no b_path.
        assert run_trajectory([0.5]).b_path == []
        with pytest.raises(UsageError, match=f"at least 2 values, got {m}$"):
            final_break_counts(_unreadable(3, m))

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
        # More rows than two tiles, and more columns than the first block
        # reads, so rows reach the second block in every tile.
        n = mc._FIRST_BLOCK + 40
        rows = 2 * (mc._TILE_VALUES // mc._FIRST_BLOCK) + 123
        vals, _ = trial_values(99, n, 0, rows)
        assert np.array_equal(
            final_break_counts(vals), _reference_final_break_counts(vals)
        )
        # Rows whose first block and X_{n-1} all lie below X_n read on.
        first = vals[:, n - 1 - mc._FIRST_BLOCK : n]
        assert (first < vals[:, -1:]).all(axis=1).sum() > rows // 20

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("m", [7 * mc._FIRST_BLOCK + 2, 7 * mc._FIRST_BLOCK + 4])
    def test_block_and_tile_edges(self, m, extra):
        # Row r's first value above X_n sits d = ends[r % len(ends)]
        # columns back from X_{n-1}: one column before, at and one after
        # the last column of each of the first three blocks (w, 3w and 7w
        # back), or nowhere, so the row runs to column 0.  The row counts
        # put rows of every kind on both sides of the tile edge.
        w = mc._FIRST_BLOCK
        ends = [d for d in (w - 1, w, w + 1, 3 * w - 1, 3 * w, 3 * w + 1,
                            7 * w - 1, 7 * w, 7 * w + 1) if d < m - 1] + [m - 1]
        rng = np.random.default_rng(m)
        vals = np.empty((mc._TILE_VALUES // w + extra, m), dtype=np.uint64)
        for r, row in enumerate(vals):
            # Ranks: X_n is d, the d columns after the first value above
            # it hold 0..d-1, and the columns up to it hold d+1..m-1.
            d = ends[r % len(ends)]
            row[: m - 1 - d] = rng.permutation(np.arange(d + 1, m))
            row[m - 1 - d : m - 1] = rng.permutation(d)
            row[-1] = d
        assert np.array_equal(
            final_break_counts(vals), _reference_final_break_counts(vals)
        )

    def test_short_row_memory_stays_near_one_tile(self):
        # Rows of 12 values over 16 tiles of the tie screen; past the
        # per-row counts the walk holds the gathered blocks of one tile.
        n = 11
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


class TestVectorizedStatistics:
    @pytest.mark.parametrize("n", [*range(1, 14), 23])
    def test_matches_stack_replay(self, n):
        vals, _ = trial_values(321, n, 0, 300)
        vec_b = final_break_counts(vals)
        for r in range(vals.shape[0]):
            stats = run_trajectory([int(v) for v in vals[r]])
            assert stats.b_path[-1] == vec_b[r]


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
        # Record jumps since they left the window sampler.
        pmf = simulate_r(SimConfig(n=50, trials=20000, seed=5050))
        counts = [pmf.counts[r] for r in range(1, 52)]
        assert counts[:13] == [
            384, 1720, 3671, 4668, 4158, 2892, 1499, 656, 257, 74, 16, 4, 1
        ]
        assert not any(counts[13:])
        assert pmf.meta["generator"] == mc.RECORD_GENERATOR

    @pytest.mark.parametrize("workers", [1, 2])
    def test_record_counts_n8(self, workers):
        pmf = simulate_r(SimConfig(n=8, trials=20000, seed=808, workers=workers))
        assert [pmf.counts[r] for r in range(1, 10)] == [
            2271, 6041, 6551, 3666, 1207, 228, 34, 1, 1
        ]
        assert pmf.meta["generator"] == mc.RECORD_GENERATOR

    def test_suffix_break_counts_n500(self):
        # Two blocks, the second of one trial, on two threads.
        pmf = simulate_b_suffix(SimConfig(n=500, trials=2**16 + 1, seed=2024, workers=2))
        assert [pmf.counts[k] for k in range(13)] == [
            33068, 16086, 8167, 4137, 2020, 1059, 515, 248, 123, 64, 31, 11, 3
        ]
        assert pmf.overflow == 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_auto_checkpoints_n11(self, workers):
        by_t = simulate_b_checkpoints(
            SimConfig(n=11, trials=20000, seed=1111, workers=workers)
        )
        pinned = {
            2: [10114, 6585, 3301],
            5: [10149, 5290, 2971, 1264, 288, 38],
            11: [9991, 5084, 2685, 1358, 601, 210, 57, 12, 2, 0, 0, 0],
        }
        assert sorted(by_t) == sorted(pinned)
        for t, counts in pinned.items():
            assert [by_t[t].counts[k] for k in range(t + 1)] == counts
            assert by_t[t].overflow == 0
            assert by_t[t].meta["tie_redraws"] == 0


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


class TestRunMeta:
    def test_chunks_and_throughput(self, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 4096)
        cfg = SimConfig(n=12, trials=2000, seed=13)
        chunks = -(-2000 // mc._rows_per_chunk(12))
        assert chunks > 1
        runs = [
            simulate_b(cfg).meta["run"],
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

    def test_trial_range_over_the_cap_is_refused_before_any_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(mc.np.random, "Philox", refuse)
        with pytest.raises(CapacityError, match="over the 1073741824-byte cap"):
            trial_values(1, 500, 0, 2**19)
        # 504 words per row at n = 500: the cap holds 266,305 whole rows.
        rows = mc._MAX_ROW_BYTES // (8 * 504)
        with pytest.raises(CapacityError):
            trial_values(1, 500, 10, 10 + rows + 1)
        with pytest.raises(AssertionError, match="a generator was built"):
            trial_values(1, 500, 10, 10 + rows)


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

    # The histogram tests run on both samplers of B_n, which pool alike.
    @pytest.mark.parametrize("sample", [simulate_b, simulate_b_suffix])
    def test_support_clipped_to_n(self, sample):
        pmf = sample(SimConfig(n=3, trials=500, seed=9))
        assert set(pmf.counts) == {0, 1, 2, 3}
        assert pmf.overflow == 0

    @pytest.mark.parametrize("sample", [simulate_b, simulate_b_suffix])
    def test_histograms_are_no_wider_than_the_row(self, sample):
        # B_n <= n, so a kmax far past n costs no memory: the run peaks
        # below one (kmax + 2)-wide int64 row, and counts as at kmax = n.
        kmax = 10**6
        cfg = SimConfig(n=5, trials=1000, seed=3, kmax=kmax, workers=1)
        pmf, peak = _traced_peak(lambda: sample(cfg))
        assert peak < (kmax + 2) * np.dtype(np.int64).itemsize
        assert pmf.counts == sample(SimConfig(n=5, trials=1000, seed=3, kmax=5)).counts
        assert pmf.overflow == 0

    @pytest.mark.parametrize("sample", [simulate_b, simulate_b_suffix])
    def test_overflow_pooling(self, sample):
        pmf = sample(SimConfig(n=40, trials=2000, seed=55, kmax=3))
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


def _reference_suffix_tally(seed, n, trials):
    """Tallies of B_n over one block, trial by trial in exact integers.

    Draws the block's words in the sampler's order: L for every trial,
    then one jump per open trial, round by round, in trial order.  The
    jump floor(j * 2**53 / k) + 1 takes no float64 rounding.
    """
    bg = np.random.Philox(key=seed + (mc._SUFFIX_KEY << 64))
    length = [min(n, 2**53 // (int(w >> 11) + 1) - 1) for w in bg.random_raw(trials)]
    counts = [min(l, 1) for l in length]
    open_ = {t: 1 for t, l in enumerate(length) if l > 1}
    while open_:
        for (t, j), w in zip(list(open_.items()), bg.random_raw(len(open_))):
            j = j * 2**53 // (int(w >> 11) + 1) + 1
            counts[t] += j <= length[t]
            if j < length[t]:
                open_[t] = j
            else:
                del open_[t]
    tally = Counter(counts)
    return [tally[b] for b in range(max(tally) + 1)]


def _reference_record_tally(seed, n, trials):
    """Tallies of R_n over one block, trial by trial in exact integers.

    Draws the block's words in the sampler's order: one jump per open
    trial, round by round, in trial order, from index 1 of n + 1 values.
    """
    bg = np.random.Philox(key=seed + (mc._RECORD_KEY << 64))
    counts, open_ = [1] * trials, dict.fromkeys(range(trials), 1)
    while open_:
        for (t, j), w in zip(list(open_.items()), bg.random_raw(len(open_)).tolist()):
            j = j * 2**53 // ((w >> 11) + 1) + 1
            counts[t] += j <= n + 1
            if j < n + 1:
                open_[t] = j
            else:
                del open_[t]
    tally = Counter(counts)
    return [tally[r] for r in range(max(tally) + 1)]


def _trimmed(tally):
    """A tally without its trailing empty bins."""
    while not tally[-1]:
        tally.pop()
    return tally


def _fit_p_value(emp, mass):
    """Chi-square p-value of a sample's bins 0..min(kmax, n) and overflow."""
    top = min(emp.kmax, emp.n)
    body = [mass(k) for k in range(top + 1)]
    observed = [emp.counts[k] for k in range(top + 1)] + [emp.overflow]
    return chi_square_fit(observed, body + [1 - sum(body)], emp.trials)[2]


class TestSuffixSampler:
    """``simulate_b_suffix`` draws B_n from its suffix length and record jumps."""

    @pytest.mark.parametrize(
        "n, law",
        [
            (1, "exact"),
            (2, "exact"),
            (12, "exact"),
            (500, "exact"),
            (8, "enumeration"),
            (10**9, "limit"),
        ],
    )
    def test_fits_the_law_of_b_n(self, n, law):
        # At seed 1 the six p-values run from 0.22 to 0.79.
        mass = {
            "exact": lambda: exact_pmf_b(n, 12).prob,
            "enumeration": lambda: oracle_pmf_b(n).prob,
            "limit": lambda: geometric_limit,
        }[law]()
        emp = simulate_b_suffix(SimConfig(n=n, trials=10**6, seed=1))
        assert _fit_p_value(emp, mass) > 0.01

    @staticmethod
    def _no_minus_one(u, n):
        # L = min(n, 2**53 // k), as floor(1 / U) is 2**53 // k exactly.
        length = np.minimum(np.floor(1 / u), n)
        return int(np.count_nonzero(length == 0)), length[length > 1]

    @pytest.mark.parametrize(
        "plant",
        [
            _no_minus_one,
            lambda u, n, lengths=mc._suffix_lengths: lengths(u, n - 1),
        ],
        ids=["no-minus-one", "cap-at-n-minus-1"],
    )
    def test_an_off_by_one_in_l_fails_the_exact_fit(self, plant, monkeypatch):
        monkeypatch.setattr(mc, "_suffix_lengths", plant)
        emp = simulate_b_suffix(SimConfig(n=12, trials=10**6, seed=1))
        assert _fit_p_value(emp, exact_pmf_b(12, 12).prob) < 1e-20

    @pytest.mark.parametrize("n, trials", [(20, 200_000), (500, 100_000)])
    def test_agrees_with_the_window_sampler(self, n, trials):
        # Two-sample chi-square on equal totals, tail bins pooled to 10
        # trials; p = 0.69 at n = 20 and 0.27 at n = 500.
        cfg = SimConfig(n=n, trials=trials, seed=1)
        a, b = simulate_b_suffix(cfg), simulate_b(cfg)
        bins = [(a.counts[k], b.counts[k]) for k in sorted(a.counts)]
        bins.append((a.overflow, b.overflow))
        while sum(bins[-1]) < 10:
            x, y = bins.pop()
            bins[-1] = (bins[-1][0] + x, bins[-1][1] + y)
        stat = sum((x - y) ** 2 / (x + y) for x, y in bins)
        assert chi2_sf(stat, len(bins) - 1) > 0.01

    @pytest.mark.parametrize("n", [1, 2, 8, 20, 10**9])
    def test_block_matches_the_exact_integer_loop(self, n):
        # A full block, and a partial one, which draws from the same key.
        for trials in (mc._SUFFIX_BLOCK, 777):
            tally = _trimmed(mc._suffix_tally(7, n, 0, trials))
            assert tally == _reference_suffix_tally(7, n, trials)

    @pytest.mark.parametrize("n", [1, 2, 8, 10**9])
    def test_lengths_match_the_integer_formula_at_each_threshold(self, n):
        # L = min(n, 2**53 // k - 1) changes at k = floor(2**53 / (l + 1));
        # k = 2**52 and 2**52 + 1 straddle L = 0 and k = 1 is the largest L.
        edges = [2**53 // (l + 1) for l in [*range(1, 65), 2**20, 2**40]]
        ks = [k for e in edges for k in (e - 1, e, e + 1)] + [1, 2**52, 2**52 + 1, 2**53]
        zero, last = mc._suffix_lengths(np.array(ks, dtype=np.float64) * 2.0**-53, n)
        length = [min(n, 2**53 // k - 1) for k in ks]
        assert zero == length.count(0)
        assert last.tolist() == [l for l in length if l > 1]

    def test_uniforms_are_the_grid_draws_of_the_raw_words(self):
        # U = ((w >> 11) + 1) * 2**-53 of the block's words, in their order;
        # each call returns its own array, which the next call leaves alone.
        key = 5 + (mc._SUFFIX_KEY << 64)
        gen = np.random.Generator(np.random.Philox(key=key))
        u = np.concatenate([mc._uniforms(gen, size) for size in (3, 1000, 77)])
        k = (np.random.Philox(key=key).random_raw(1080) >> np.uint64(11)) + np.uint64(1)
        assert u.tolist() == [int(x) * 2.0**-53 for x in k]

    @pytest.mark.parametrize("trials", [2**16 - 1, 2**16, 2**16 + 1])
    def test_counts_do_not_depend_on_the_workers(self, trials):
        # Both samplers of the record jumps.
        cfg = SimConfig(n=50, trials=trials, seed=3, workers=1)
        for sample in (simulate_b_suffix, simulate_r):
            one = sample(cfg)
            two = sample(dataclasses.replace(cfg, workers=2))
            assert (one.counts, one.overflow) == (two.counts, two.overflow)
            assert one.meta["run"]["chunks"] == -(-trials // mc._SUFFIX_BLOCK)

    @pytest.mark.parametrize("sample", [simulate_b_suffix, simulate_r])
    def test_a_full_block_stays_under_3_mib(self, sample):
        # One block on one thread at n = 10**9 peaks at 0.84 MiB traced for
        # B_n and 2.07 MiB for R_n, whose first round holds the uniforms,
        # open indices and jumps of every trial.  The one-trial run first
        # takes the allocations of a first run in the process, about 0.7 MiB.
        cfg = SimConfig(n=10**9, trials=mc._SUFFIX_BLOCK, seed=1, workers=1)
        sample(dataclasses.replace(cfg, trials=1))
        emp, peak = _traced_peak(lambda: sample(cfg))
        assert emp.meta["run"]["chunks"] == 1
        assert peak < 3 * 2**20

    def test_a_full_block_draws_the_same_in_a_longer_run(self):
        full = simulate_b_suffix(SimConfig(n=50, trials=2**16, seed=3))
        more = simulate_b_suffix(SimConfig(n=50, trials=2**16 + 1, seed=3))
        diff = [more.counts[k] - full.counts[k] for k in full.counts]
        diff.append(more.overflow - full.overflow)
        assert sorted(diff) == [0] * (len(diff) - 1) + [1]

    def test_meta_names_the_sampler(self):
        meta = simulate_b_suffix(SimConfig(n=6, trials=100, seed=1)).meta
        assert meta["generator"] == mc.SUFFIX_GENERATOR
        assert meta["trials_per_block"] == mc._SUFFIX_BLOCK == 2**16
        assert "words_per_trial" not in meta
        assert meta["mode"] == "break-count"


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

    @staticmethod
    def _exact_p_value(emp, top):
        """Chi-square p-value against P[R_n = r] = c(n + 1, r) / (n + 1)!,
        from the Stirling row c(n + 1, 1..top), plus a tail bin."""
        top = min(top, emp.n + 1)
        row = linear_stirling_row(emp.n + 1, top)
        scale = math.factorial(emp.n + 1)
        body = [Fraction(row[r], scale) for r in range(1, top + 1)]
        observed = [emp.counts[r] for r in range(1, top + 1)]
        observed.append(emp.trials - sum(observed))
        return chi_square_fit(observed, body + [1 - sum(body)], emp.trials)[2]

    def test_the_reference_law_is_the_enumerated_one(self):
        assert [Fraction(c, math.factorial(9)) for c in linear_stirling_row(9, 9)] == [
            oracle_pmf_r(8).prob(r) for r in range(10)
        ]

    @pytest.mark.parametrize("n", [1, 8, 500, 5000])
    def test_fits_the_exact_law(self, n):
        # At seed 1: p = 0.67, 0.99, 0.38 and 0.77.
        emp = simulate_r(SimConfig(n=n, trials=10**6, seed=1))
        assert self._exact_p_value(emp, 25) > 0.01

    def test_a_planted_last_of_n_fails_the_exact_fit(self, monkeypatch):
        # Counting the records of n values, not n + 1, draws R_{n-1}.
        real = mc._record_jumps
        monkeypatch.setattr(
            mc,
            "_record_jumps",
            lambda gen, size, last, tally: real(gen, size, last - 1, tally),
        )
        emp = simulate_r(SimConfig(n=12, trials=10**6, seed=1))
        assert self._exact_p_value(emp, 25) < 1e-20

    @pytest.mark.parametrize("n", [1, 8, 500, 10**9])
    def test_block_matches_the_exact_integer_loop(self, n):
        tally = _trimmed(mc._record_tally(7, n, 0, mc._SUFFIX_BLOCK))
        assert tally == _reference_record_tally(7, n, mc._SUFFIX_BLOCK)

    def test_mean_at_n_1e9_is_harmonic(self):
        n = 10**9
        emp = simulate_r(SimConfig(n=n, trials=10**6, seed=1))
        m = n + 1
        harmonic = math.log(m) + 0.5772156649015329 + 1 / (2 * m) - 1 / (12 * m * m)
        assert abs(emp.mean() - harmonic) < 5 * emp.mean_stderr()

    def test_histogram_width_does_not_grow_with_n(self):
        # n + 2 int64 bins at n = 10**9 would take 8 GB; the run peaks
        # near 80 KB, or 1 MB when it is the first in its process.
        cfg = SimConfig(n=10**9, trials=1000, seed=1, workers=1)
        emp, peak = _traced_peak(lambda: simulate_r(cfg))
        assert sorted(emp.counts) == list(range(1, mc._MAX_RECORDS + 1))
        assert peak < 2**24

    def test_a_trial_past_the_histogram_raises(self, monkeypatch):
        # With the cap at 3 records, a trial with 4 or more stops the run
        # instead of leaving the histogram.
        monkeypatch.setattr(mc, "_MAX_RECORDS", 3)
        with pytest.raises(PartialResultError) as exc:
            simulate_r(SimConfig(n=50, trials=1000, seed=1, workers=1))
        assert exc.value.completed == 0
        assert str(exc.value.__cause__) == "a trial holds over 3 records"

    def test_n_past_the_float_grid_is_refused_before_any_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started past the float64 grid")

        n = 2**53 - 1  # n + 1 = 2**53, where 2**53 + 1 rounds to 2**53
        assert simulate_r(SimConfig(n=n - 1, trials=3, seed=1, workers=1)).trials == 3
        monkeypatch.setattr(mc, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(mc.np.random, "Philox", refuse)
        for big in (n, 2**64):
            with pytest.raises(CapacityError, match="n \\+ 1 < 2\\*\\*53"):
                simulate_r(SimConfig(n=big, trials=1, seed=1))


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
        plain = simulate_b(cfg)
        assert sorted(by_t) == [5, 20, 40]
        for t, pmf in by_t.items():
            assert pmf.n == t
            assert sum(pmf.counts.values()) + pmf.overflow == 2000
            assert {**pmf.meta, "run": None} == {**plain.meta, "run": None}

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

    def test_worker_invariance(self, planted_ties):
        # Every 97th trial is tied in its first draw and redrawn, 31 of
        # 3000; at n = 11 every checkpoint counts a prefix of short rows.
        for n, seed in [(24, 7), (11, 17)]:
            a = simulate_b_checkpoints(
                SimConfig(n=n, trials=3000, seed=seed, workers=1)
            )
            b = simulate_b_checkpoints(
                SimConfig(n=n, trials=3000, seed=seed, workers=3)
            )
            assert sorted(a) == sorted(b)
            vals, _ = trial_values(seed, n, 0, 3000)
            for t in a:
                assert a[t].counts == b[t].counts
                assert a[t].meta["tie_redraws"] == b[t].meta["tie_redraws"] == 31
                ref = np.bincount(
                    _reference_final_break_counts(vals[:, : t + 1]), minlength=t + 1
                )
                kept = len(a[t].counts)
                assert list(a[t].counts.values()) == ref[:kept].tolist()
                assert a[t].overflow == ref[kept:].sum()


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

    def test_final_record_count_off_by_one(self, monkeypatch):
        # Trial 7's replay reports one record too many after its last step,
        # which only the recursion can see.
        real = mc.run_trajectory
        calls = []

        def fake(values):
            stats = real(values)
            calls.append(None)
            if len(calls) - 1 == self.planted:
                stats.r_path[-1] += 1
            return stats

        monkeypatch.setattr(mc, "run_trajectory", fake)
        exc = self._assert_caught("record count recursion failed")
        assert exc.step == self.cfg.n

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

    def test_tie_past_the_screen(self, monkeypatch):
        # A tied pair in the rows the chunk hands back, as if the screen
        # and its redraw had both missed it.
        real = mc._break_counts

        def tied(seed, n, t0, t1, ts):
            vals, counts, redraws = real(seed, n, t0, t1, ts)
            if t0 <= self.planted < t1:
                vals = vals.copy()
                vals[self.planted - t0, 1] = vals[self.planted - t0, 0]
            return vals, counts, redraws

        monkeypatch.setattr(mc, "_break_counts", tied)
        exc = self._assert_caught("tie")
        assert str(exc) == f"tie survived redraw in trial {self.planted}"
        assert exc.step is None
        assert type(exc.__cause__) is TieError

    def test_replay_never_iterates_a_stack(self, monkeypatch):
        # One range of 50 rows, so the replay runs in this process.
        iterated = []
        real = RecordStack.__iter__

        def counting(stack):
            iterated.append(len(stack))
            return real(stack)

        monkeypatch.setattr(RecordStack, "__iter__", counting)
        report = simulate_trajectory_audit(SimConfig(n=100, trials=50, seed=41))
        assert report.steps_checked == 100 * 50
        assert iterated == []
        # The counter is live: listing a stack iterates it once.
        assert len(list(records.records_by_scan([0.2, 0.9, 0.5]))) == 2
        assert iterated == [2]

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


@pytest.mark.parametrize("n", [8, 11])
class TestAuditChecksShortRowCounts:
    """The audit replays the short rows that ``final_break_counts`` counted,
    so a fault planted in the count stops it at the planted trial."""

    trials, seed, planted = 40, 88, 13

    @pytest.fixture
    def bit_0_neighbours(self, monkeypatch):
        """X_{n-1} one below X_n in the first draw of the planted trial: a
        count that reads fewer bits than the values hold misses the record
        that X_n breaks."""
        raw = mc._raw_rows

        def planted(seed, n, t0, t1, attempt):
            out = raw(seed, n, t0, t1, attempt)
            if attempt == 0 and t0 <= self.planted < t1:
                _plant_bit_0_neighbours(out[self.planted - t0], 0)
            return out

        monkeypatch.setattr(mc, "_raw_rows", planted)

    def _cfg(self, n):
        return SimConfig(n=n, trials=self.trials, seed=self.seed)

    def _assert_caught(self, n):
        with pytest.raises(InvariantError) as exc:
            simulate_trajectory_audit(self._cfg(n))
        assert str(exc.value) == "vectorized break count disagrees with the stack"
        assert (exc.value.seed, exc.value.trial, exc.value.step) == (
            self.seed, self.planted, n
        )

    def test_bit_0_neighbours_pass(self, n, bit_0_neighbours):
        report = simulate_trajectory_audit(self._cfg(n))
        assert report.steps_checked == n * self.trials
        assert report.tie_redraws == 0

    def test_a_count_on_the_top_16_bits_is_caught(self, n, bit_0_neighbours, monkeypatch):
        real = mc.final_break_counts
        monkeypatch.setattr(
            mc, "final_break_counts", lambda vals: real(vals >> np.uint64(48))
        )
        self._assert_caught(n)

    def test_one_shifted_count_is_caught(self, n, monkeypatch):
        real = mc.final_break_counts

        def shifted(vals):
            counts = real(vals)
            counts[self.planted] += 1
            return counts

        monkeypatch.setattr(mc, "final_break_counts", shifted)
        self._assert_caught(n)


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
        parent, real = os.getpid(), mc._break_counts

        def dying(seed, n, t0, t1, ts):
            if t0 == 2 * self.rows:
                if os.getpid() == parent:
                    raise RuntimeError("the third range ran in the test process")
                time.sleep(0.5)  # ranges 0 and 1 are summed meanwhile
                os._exit(1)
            return real(seed, n, t0, t1, ts)

        monkeypatch.setattr(mc, "_break_counts", dying)
        with pytest.raises(PartialResultError) as exc:
            self._audit(2)
        assert exc.value.completed == 2 * self.rows
        assert isinstance(exc.value.__cause__, BrokenProcessPool)

    def test_without_fork_the_audit_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        report = self._audit(2)
        assert report == self._audit(1)
        assert report.run["workers"] == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the audit forks no workers here")
class TestAuditUnderTheBenchmarkTracer:
    """The traced benchmark hands the scheduler a closure, and only the fork
    carries a closure to the audit's worker processes.

    In a fresh interpreter, an audit on two forked workers is run plain and
    then again with ``perfbench/spans.py``'s wrappers installed; both must
    give the same report.  A smoke run of the traced benchmark audits one
    range in-process, so it cannot see this path fail.
    """

    probe = """
import json, sys
from unittest import mock
sys.path.insert(0, sys.argv[1])
import spans
import brokenrecords.montecarlo as mc
from brokenrecords import SimConfig, simulate_trajectory_audit

def facts(report):
    return [report.steps_checked, report.tie_redraws, report.run["workers"],
            report.run["chunks"]]

cfg = SimConfig(n=100, trials=2000, seed=34, workers=2)
with mock.patch.object(mc, "usable_cpus", lambda: 2):
    plain = simulate_trajectory_audit(cfg)
    spans.install(spans.Recorder())
    traced = simulate_trajectory_audit(cfg)
print(json.dumps([plain == traced, facts(plain), facts(traced)]))
"""

    def test_traced_and_plain_audits_agree(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(brokenrecords.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", self.probe, os.path.join(root, "perfbench")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [True, [200_000, 0, 2, 4], [200_000, 0, 2, 4]]


class TestAuditChunkAcrossTiles:
    """One audit range spans several tiles of every kernel.

    With 60-value tiles, the tie screen takes rows of 12 values (n = 11)
    five to a tile and rows of 101 values (n = 100) one to a tile, and the
    break-count walk takes ``_TILE_VALUES // _FIRST_BLOCK`` = 7 rows to a
    tile at any n.  Trials [3, 23) are therefore 4 or 20 tiles of the
    screen and 3 of the walk.  Faults are planted at the first or the
    last row of the walk's second tile.
    """

    seed, t0, t1 = 17, 3, 23

    @pytest.fixture(autouse=True)
    def _small_tiles(self, monkeypatch):
        monkeypatch.setattr(mc, "_TILE_VALUES", 60)

    def _audit(self, n):
        cfg = SimConfig(n=n, trials=self.t1, seed=self.seed)
        return mc._audit_chunk(cfg, self.t0, self.t1)

    @pytest.mark.parametrize("n", [11, 100])
    def test_the_range_passes(self, n):
        assert self._audit(n) == ((self.t1 - self.t0) * n, 0)

    @pytest.mark.parametrize("n, edge", [(11, "first"), (100, "last")])
    def test_a_fault_in_the_second_tile_names_its_trial(self, n, edge, monkeypatch):
        tile_rows = mc._TILE_VALUES // mc._FIRST_BLOCK
        assert 2 * tile_rows < self.t1 - self.t0  # a third tile follows
        row = tile_rows if edge == "first" else 2 * tile_rows - 1
        real = mc.final_break_counts

        def planted(vals):
            out = real(vals)
            out[row] += 1
            return out

        monkeypatch.setattr(mc, "final_break_counts", planted)
        with pytest.raises(InvariantError) as exc:
            self._audit(n)
        assert str(exc.value) == "vectorized break count disagrees with the stack"
        assert (exc.value.seed, exc.value.trial, exc.value.step) == (
            self.seed, self.t0 + row, n
        )


def _stats(n, r_path, b_path, idx):
    stack = RecordStack(idx)
    return TrajectoryStats(
        n=n, r_path=r_path, b_path=b_path, final_records=stack
    )


def _fail_from(threshold):
    """``_break_counts``, which every sampler chunk calls, with a fault
    injected in every chunk from ``threshold``."""
    real = mc._break_counts

    def wrapper(seed, n, t0, t1, ts):
        if t0 >= threshold:
            raise RuntimeError("injected fault")
        return real(seed, n, t0, t1, ts)

    return wrapper


class TestPartialFailure:
    def test_single_worker_reports_completed(self, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 1024)
        rows = mc._rows_per_chunk(7)
        monkeypatch.setattr(mc, "_break_counts", _fail_from(rows))
        cfg = SimConfig(n=7, trials=rows * 4, seed=3)
        with pytest.raises(PartialResultError) as exc:
            simulate_b(cfg)
        assert exc.value.completed == rows
        assert isinstance(exc.value.__cause__, RuntimeError)

    def test_threaded_workers_report_partial(self, monkeypatch):
        monkeypatch.setattr(mc, "_TARGET_CHUNK_VALUES", 1024)
        rows = mc._rows_per_chunk(7)
        monkeypatch.setattr(mc, "_break_counts", _fail_from(rows))
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
        monkeypatch.setattr(mc, "_break_counts", _fail_from(2 * rows))
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
