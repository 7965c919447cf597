"""Seeded simulation of break and record counts over random trajectories.

Reproducibility scheme: the bit generator is Philox4x64, keyed by
``seed + attempt * 2**64``.  Trial t owns a fixed window of the counter
stream, blocks [t * s, (t + 1) * s) where s is the number of four-word
blocks needed for n + 1 full-range uint64 variates.  Every value of every
trial therefore has a pregiven address in the stream, so results are
bit-identical however trials are split into chunks or spread over
workers.  A trial whose draw contains a tied pair is redrawn from the
attempt-1 key (then attempt 2, and so on), which keeps the redraw local
to that trial; redraw totals land in the result metadata.

One function, ``_break_counts``, draws, screens and counts every chunk of
trials for ``trial_values``, the sampler and the audit, a tile of about
``_TILE_VALUES`` values at a time rather than in per-trial Python loops.
The break count of the last step reads each row backward from X_n and
stops at the first value above it, about H_n columns per trial (the
suffix after the last value above X_n has length L with P[L >= l] =
1 / (l + 1)); the record count of a full row is a right-to-left running
maximum, which on wide rows reads only the maximum of a block that stays
below it.  ``_column_tiles`` copies tiles into column-major order, so
each kernel reads whole contiguous columns.  Short rows (at most
``_SHORT_COLUMNS`` values, n <= 11) are read once, as tiles of each
value's top 16 bits (its key): one pass flags the rows that hold two
equal keys and walks the break count at every requested horizon.
Distinct keys are ordered as their values are, so only the few flagged
rows are finished on 64 bits, where a true tie is redrawn; wider rows are
screened by a half-word sort.
``simulate_trajectory_audit`` is the slow counterpart that replays each
trajectory through the incremental stack and checks conservation step
by step.  The replay is pure Python, so threads cannot share it: it runs
in ranges of one tile of rows, in trial order, on forked worker
processes, one per usable CPU, and in-process on one CPU, on one range
or where the platform cannot fork.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .errors import (
    CapacityError, InvariantError, PartialResultError, TieError, UsageError, checked_int
)
from .records import TrajectoryStats, run_trajectory, scan_distinct

GENERATOR = "philox4x64-counter-window"
# A chunk draws about 2**19 values (4 MiB): small enough that the allocator
# reuses its memory, where a 64 MiB chunk is mapped and faulted in afresh
# each time.  Only the chunks that a thread is working on hold rows, so
# peak memory is about threads * (4 MiB + one kernel tile).  On one thread
# n = 500 runs as fast as at 2**20; at 2**17 values the per-chunk Python
# calls dominate and long rows run slower.
_TARGET_CHUNK_VALUES = 2**19
_MAX_REDRAWS = 64
# One trial row is never split across chunks, so its size is the floor of
# a chunk's memory; 2**30 bytes holds rows up to n = 2**27 - 1.
_MAX_ROW_BYTES = 2**30
# Rows of at most _SHORT_COLUMNS values are read once as tiles of 16-bit
# keys (_key_walk); wider rows are screened by a sort of their 32-bit half
# words and counted by the 64-bit walk, whose dense phase reads the last
# _SHORT_COLUMNS columns of every row.  Per 2**19-value chunk past the draw
# (2-CPU Xeon, medians of 61 interleaved runs), the key pass with its
# finish took 2.4-3.3 ms against 4.1-4.8 ms for the sort and the walk at
# every width from 12 to 16 columns (3.30 against 4.60 ms at 16).  The
# value stays at 12 all the same: a 16-column dense phase slows the walk of
# wider rows by 0.1-0.4 ms at n = 16 to 30 (2.57 against 2.20 ms at 16).
_SHORT_COLUMNS = 12
# Every kernel works on tiles of about _TILE_VALUES values (whole rows, at
# least one).  Per 2**19-value chunk at n = 8 to 500 (2-CPU Xeon, medians
# of 101 runs), 2**14 was slower on almost every kernel, up to 2.1x, and
# 2**18 on the wide record count, up to 1.4x.  2**16 was within 12% of the
# fastest budget on every kernel but the narrow record count near 64
# columns (3.3 against 2.7 ms at n = 63) and the key walk of short rows
# (medians of 61 runs: 1.47 against 1.30 ms at 2**17 at n = 8, 2.38
# against 1.78 ms at 2**18 at n = 11).  At n = 1 the key walk is slower
# on larger tiles (0.73 ms at 2**17 against 0.46), and at n <= 2 a tile of
# 2**17 keys and its temporaries outgrow one 64-bit tile of 2**16 values.
_TILE_VALUES = 2**16
# Rows of at most _NARROW_COLUMNS values get their record count a column
# at a time; wider rows a block of columns at a time, skipping blocks with
# no record.  Per 2**19-value chunk (2-CPU Xeon, medians of 61 runs),
# blocks alone took 3.90 against 1.44 ms at n = 8 and 2.97 against 1.81
# ms at n = 32, and were about even at n = 63 (3.04 against 2.85 ms).
_NARROW_COLUMNS = 64
# The uint16 lane of a uint64 that holds its top 16 bits, the key of _key_walk.
_KEY_LANE = 3 if sys.byteorder == "little" else 0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` and cpusets shrink it), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run.

    ``kmax`` pools break counts above it into an overflow bucket.  ``workers``
    only changes how chunks are scheduled, never the numbers: it defaults to
    and is clamped to ``usable_cpus()``, each worker with at most two chunks
    in flight.  The sampler's workers are threads; the audit's are forked
    processes, since its replay holds the GIL.  A field that is not an
    integer is refused with UsageError (a numpy integer is kept as an int),
    and an ``n`` whose trial row is over the sampler's cap with
    CapacityError, here, before any work.
    """

    n: int
    trials: int
    seed: int
    kmax: int = 12
    workers: int = field(default_factory=usable_cpus)

    def __post_init__(self):
        n, trials = checked_int("n", self.n, 1), checked_int("trials", self.trials, 1)
        seed, workers = check_seed_and_workers(self.seed, self.workers)
        kmax = checked_int("kmax", self.kmax)
        checked = dict(n=n, trials=trials, seed=seed, kmax=kmax, workers=workers)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        _words_per_trial(self.n)


def check_seed_and_workers(seed: int, workers: int) -> tuple[int, int]:
    """The seed and worker rules of ``SimConfig``, for callers to check early."""
    return _checked_seed(seed), checked_int("workers", workers, 1)


def _checked_seed(seed: int) -> int:
    """The seed as an int that keys Philox4x64: at least 0 and below 2**64."""
    seed = checked_int("seed", seed, None)
    if not 0 <= seed < 2**64:
        raise UsageError("seed must fit in an unsigned 64-bit integer")
    return seed


@dataclass
class EmpiricalPmf:
    """Observed counts from a simulation, plus provenance metadata.

    ``counts`` maps each retained outcome to its tally and ``overflow``
    pools everything above ``kmax``; together they account for every
    trial.  Volatile run facts (wall time, timestamp, workers) live under
    ``meta["run"]`` so that everything else is reproducible bit for bit.
    """

    n: int
    trials: int
    counts: dict[int, int]
    overflow: int
    kmax: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        body = sum(self.counts.values())
        if body + self.overflow != self.trials:
            raise ValueError(
                f"counts sum to {body} with overflow {self.overflow}, "
                f"expected {self.trials} trials"
            )

    def frequency(self, k: int) -> float:
        return self.counts.get(k, 0) / self.trials

    def frequencies(self) -> dict[int, float]:
        return {k: c / self.trials for k, c in sorted(self.counts.items())}

    def stderr(self, k: int) -> float:
        p = self.frequency(k)
        return math.sqrt(p * (1.0 - p) / self.trials)

    def mean(self) -> float:
        if self.overflow:
            raise ValueError("mean is undefined while overflow pools outcomes")
        return sum(k * c for k, c in self.counts.items()) / self.trials

    def mean_stderr(self) -> float:
        if self.overflow:
            raise ValueError("mean is undefined while overflow pools outcomes")
        if self.trials < 2:
            return float("inf")
        m = self.mean()
        sq = sum(k * k * c for k, c in self.counts.items()) / self.trials
        var = (sq - m * m) * self.trials / (self.trials - 1)
        return math.sqrt(max(var, 0.0) / self.trials)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a trajectory audit; construction implies every check passed.

    ``run`` holds the volatile facts of the replay (timestamp, wall time,
    chunk count, steps per second) and takes no part in equality.
    """

    n: int
    trials: int
    steps_checked: int
    tie_redraws: int
    run: dict = field(default_factory=dict, compare=False)


def _words_per_trial(n: int) -> int:
    """Words of the counter window one trial owns; refuses rows over the cap."""
    w = 4 * ((n + 1 + 3) // 4)
    if 8 * w > _MAX_ROW_BYTES:
        raise CapacityError(
            f"one trial row at n={n} takes {8 * w} bytes, over the "
            f"{_MAX_ROW_BYTES}-byte cap of the window sampler"
        )
    return w


def _raw_rows(seed: int, n: int, t0: int, t1: int, attempt: int) -> np.ndarray:
    """Raw Philox words of trials [t0, t1) at the given redraw attempt."""
    w = _words_per_trial(n)
    bg = np.random.Philox(key=seed + (attempt << 64), counter=t0 * (w // 4))
    return bg.random_raw((t1 - t0, w))[:, : n + 1]


def _row_has_tie(row: np.ndarray) -> bool:
    s = np.sort(row)
    return bool((s[1:] == s[:-1]).any())


def _column_tiles(vals: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (r0, cols): rows [r0, r0 + cols.shape[1]) of ``vals``, column-major.

    A tile holds ``_TILE_VALUES // m`` rows of m values, at least one.
    ``cols[j]`` is column j of the tile, contiguous.  One buffer serves
    every tile, so a tile is valid only until the next one is drawn.
    """
    rows, m = vals.shape
    tile_rows = max(1, _TILE_VALUES // m)
    buf = np.empty((m, min(rows, tile_rows)), dtype=vals.dtype)
    for r0 in range(0, rows, tile_rows):
        cols = buf[:, : min(tile_rows, rows - r0)]
        cols[:] = vals[r0 : r0 + tile_rows].T
        yield r0, cols


def _key_tiles(vals: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``_column_tiles`` of the keys of ``vals``: the top 16 bits of each value.

    The keys are read from the uint16 lane that holds them on this
    platform's byte order, so no 64-bit temporary is made.
    """
    return _column_tiles(vals.view(np.uint16)[:, _KEY_LANE::4])


def _key_walk(vals: np.ndarray, ts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Tie flags and break counts of short rows, read off the top 16 bits.

    Each column-major tile of ``_key_tiles`` is read once for both jobs:
    every pair of its columns is compared, which flags each row holding two
    equal keys, and ``_walk``, the backward walk of ``final_break_counts``,
    runs on the keys at every horizon t of ``ts``, counting in int8 (a count
    is at most t < ``_SHORT_COLUMNS``).  Distinct keys are ordered as their
    values are, so every unflagged row's count is exact.  A flagged row holds
    a tie or two values that differ only below their keys, about
    C(m, 2) / 2**16 of the rows; its counts are left for the caller to
    finish.  Returns (flags, counts), with counts[i] the counts at horizon
    ts[i].
    """
    rows, m = vals.shape
    flagged = np.zeros(rows, dtype=bool)
    counts = np.zeros((len(ts), rows), dtype=np.int8)
    top = np.empty(rows, dtype=np.uint16)
    for r0, keys in _key_tiles(vals):
        tile = slice(r0, r0 + keys.shape[1])
        flag = flagged[tile]
        for j in range(1, m):
            flag |= (keys[:j] == keys[j]).any(axis=0)
        for cnt, t in zip(counts[:, tile], ts):
            _walk(keys[: t + 1], top[tile], cnt)
    return flagged, counts


def _walk(cols: np.ndarray, top: np.ndarray, cnt: np.ndarray) -> None:
    """Add to ``cnt`` the records broken by the last of the columns ``cols``.

    Reads each row backward with its running maximum in ``top``: a value
    counts when it beats that maximum and stays below the last one.  ``top``
    ends as the maximum of every column but the last."""
    below = cols[-1]
    top[:] = cols[-2]
    cnt += top < below
    for v in cols[-3::-1]:
        hit = v > top
        hit &= v < below
        cnt += hit
        np.maximum(top, v, out=top)


def _redraw(vals: np.ndarray, rows: np.ndarray, seed: int, n: int, t0: int) -> int:
    """Redraw each of ``rows`` that holds a true tie; return the redraw count.

    Each row is checked on its own with the exact 64-bit test that the
    redraws use, so a row flagged only by a screen's false alarm is kept.
    A tied row is replaced by the first tie-free attempt of its trial.
    """
    redraws = 0
    for r in rows:
        if not _row_has_tie(vals[r]):
            continue
        t = t0 + int(r)
        for attempt in range(1, _MAX_REDRAWS + 1):
            row = _raw_rows(seed, n, t, t + 1, attempt)[0]
            redraws += 1
            if not _row_has_tie(row):
                vals[r] = row
                break
        else:
            raise RuntimeError(
                f"trial {t} still tied after {_MAX_REDRAWS} redraws"
            )
    return redraws


def _half_word_screen(vals: np.ndarray) -> np.ndarray:
    """Rows of ``vals`` that may hold a tie: equal 64-bit values have equal
    32-bit halves, so one half of each row is sorted (half the bytes of a
    full sort), a tile of ``_TILE_VALUES // m`` rows (at least one) at a
    time.  ``view(np.uint32)[:, 1::2]`` is the high half on little-endian
    platforms and the low half elsewhere; equal values have equal halves of
    either kind.  The largest temporary is one tile, never the chunk.
    """
    rows, m = vals.shape
    tied = np.zeros(rows, dtype=bool)
    size = max(1, _TILE_VALUES // m)
    buf = np.empty((min(rows, size), m), dtype=np.uint32)
    for r0 in range(0, rows, size):
        half = buf[: min(size, rows - r0)]
        half[:] = vals[r0 : r0 + size].view(np.uint32)[:, 1::2]
        half.sort(axis=1)
        # Each flat hit of the (tile rows x (m - 1)) comparison names its row.
        tied[r0 + np.flatnonzero(half[:, 1:] == half[:, :-1]) // (m - 1)] = True
    return np.flatnonzero(tied)


def trial_values(seed: int, n: int, t0: int, t1: int) -> tuple[np.ndarray, int]:
    """Tie-free uint64 observations for trials [t0, t1), plus redraw count.

    Row r holds the n + 1 observations of trial t0 + r, as ``_break_counts``
    draws and screens them: they depend only on (seed, n, trial index).
    """
    seed, n = _checked_seed(seed), checked_int("n", n, 1)
    t0, t1 = checked_int("t0", t0), checked_int("t1", t1)
    if t1 <= t0:
        raise UsageError(f"empty trial range [{t0}, {t1})")
    vals, _, redraws = _break_counts(seed, n, t0, t1, ())
    return vals, redraws


def _break_counts(
    seed: int, n: int, t0: int, t1: int, ts: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Tie-free rows of trials [t0, t1), their break counts, and the redraws.

    Every chunk is drawn, screened and counted here, for the sampler, the
    audit and ``trial_values`` (at no horizon); ``counts[i, r]`` counts the
    records broken at step ``ts[i]`` of row r.  ``_redraw`` redraws the
    truly tied rows among those that ``_key_walk`` (short rows, which it
    also counts) or ``_half_word_screen`` (wider rows) flags.
    ``final_break_counts`` counts the wider rows and recounts the flagged
    short rows on 64 bits, gathered once.
    """
    vals = _raw_rows(seed, n, t0, t1, 0)
    if n + 1 > _SHORT_COLUMNS:
        redraws = _redraw(vals, _half_word_screen(vals), seed, n, t0)
        return vals, np.array([final_break_counts(vals[:, : t + 1]) for t in ts]), redraws
    flagged, counts = _key_walk(vals, ts)
    rows = np.flatnonzero(flagged)
    redraws = _redraw(vals, rows, seed, n, t0)
    exact = vals[rows]
    for cnt, t in zip(counts, ts):
        cnt[rows] = final_break_counts(exact[:, : t + 1])
    return vals, counts, redraws


def final_break_counts(vals: np.ndarray) -> np.ndarray:
    """Records broken by the last observation of each row of distinct values.

    Walks each row backward from its last value X_n with the running
    maximum of the columns already read: a column counts when it beats
    that maximum and stays below X_n.  The first value above X_n ends the
    row, since every record before it lies above X_n too.  The last
    ``_SHORT_COLUMNS`` columns, all of a short row, are copied column-major
    a tile at a time and read with all rows in place.  The rows still live
    after them (about a twelfth) are then gathered once and read in column
    blocks that double in width, dropping rows as they end.  Expected work
    is O(log n) values per row and no temporary spans (rows x n).
    """
    rows, m = vals.shape
    if m < 2:
        raise UsageError(f"a break count needs rows of at least 2 values, got {m}")
    counts = np.zeros(rows, dtype=np.int64)
    top = np.empty(rows, dtype=vals.dtype)
    stop = max(m - _SHORT_COLUMNS, 0)
    for r0, cols in _column_tiles(vals[:, stop:]):
        tile = slice(r0, r0 + cols.shape[1])
        _walk(cols, top[tile], counts[tile])
    if stop == 0:
        return counts
    last = vals[:, -1]
    live = np.flatnonzero(top < last)
    mx, below = top[live], last[live]
    hi, width = stop, m - 1 - stop
    while hi > 0 and live.size:
        lo = max(hi - width, 0)
        block = vals[live, lo:hi]
        smax = np.maximum.accumulate(block[:, ::-1], axis=1)[:, ::-1]
        hit = block == smax
        hit &= block > mx[:, None]
        hit &= block < below[:, None]
        counts[live] += hit.sum(axis=1)
        np.maximum(mx, smax[:, 0], out=mx)
        keep = mx < below
        live, mx, below = live[keep], mx[keep], below[keep]
        hi, width = lo, 2 * width
    return counts


def record_counts(vals: np.ndarray) -> np.ndarray:
    """Number of current records of each full row.

    A column is a record iff it equals the maximum of itself and the
    columns after it, so every row is read right to left with a running
    maximum, and the last column always counts.  Narrow rows are read a
    column at a time across the tiles of ``_column_tiles``.  Wide rows are
    read a block at a time: a block whose maximum stays below the running
    maximum holds no record, so only its maximum is taken.  A block
    holds a record iff it holds the maximum of the columns from its start
    to the end, which for distinct values has probability width / (that
    many columns), so a row of m columns is read in full on about
    H(m / width) blocks.  Wide tiles are ``_TILE_VALUES // _NARROW_COLUMNS``
    rows (or fewer) by ``_TILE_VALUES // (tile rows)`` columns, so no
    temporary spans more than ``_TILE_VALUES`` values.
    """
    rows, m = vals.shape
    if m < 1:
        raise UsageError(f"a record count needs rows of at least 1 value, got {m}")
    counts = np.ones(rows, dtype=np.int64)
    if m <= _NARROW_COLUMNS:
        for r0, cols in _column_tiles(vals):
            cnt = counts[r0 : r0 + cols.shape[1]]
            top = cols[-1].copy()
            for col in cols[-2::-1]:
                cnt += col >= top
                np.maximum(top, col, out=top)
        return counts
    size = max(1, min(rows, _TILE_VALUES // _NARROW_COLUMNS))
    width = _TILE_VALUES // size
    for r0 in range(0, rows, size):
        tile = vals[r0 : r0 + size]
        cnt = counts[r0 : r0 + size]
        # The last block holds the last column, so every row is read there.
        lo = max(m - width, 0)
        part = tile[:, lo:][:, ::-1]
        run = np.maximum.accumulate(part, axis=1)
        cnt[:] = (part == run).sum(axis=1)
        top = run[:, -1].copy()
        for hi in range(lo, 0, -width):
            block = tile[:, max(hi - width, 0) : hi]
            peak = block.max(axis=1)
            live = np.flatnonzero(peak >= top)
            part = block[live, ::-1]
            run = np.maximum.accumulate(part, axis=1)
            np.maximum(run, top[live, None], out=run)
            cnt[live] += (part == run).sum(axis=1)
            np.maximum(top, peak, out=top)
    return counts


def _chunk_ranges(trials: int, rows: int) -> Iterator[tuple[int, int]]:
    for t0 in range(0, trials, rows):
        yield t0, min(t0 + rows, trials)


def _rows_per_chunk(n: int) -> int:
    return max(1, _TARGET_CHUNK_VALUES // _words_per_trial(n))


def _threads(cfg: SimConfig) -> int:
    """Threads the scheduler runs: ``workers``, clamped to the usable CPUs."""
    return min(cfg.workers, usable_cpus())


def _merge_chunks(
    cfg: SimConfig,
    chunk_fn: Callable[[int, int], tuple],
    shape: int | tuple[int, ...],
    rows: int,
    workers: int,
    fork: bool = False,
) -> tuple[np.ndarray, int]:
    """Run ``chunk_fn`` over the trials, ``rows`` at a time, and add up its counts.

    Ranges go in trial order to ``workers`` threads, or with ``fork`` to
    that many forked processes, with at most two per worker in flight, and
    are summed in that order; one thread is the serial case.  Memory
    therefore follows the window, not the range count.  On the first
    failure in trial order the queued ranges are cancelled: an
    InvariantError passes through unchanged, and any other failure, a dead
    worker included, becomes PartialResultError whose ``completed`` counts
    the exact prefix of trials already summed.
    """
    chunks = _chunk_ranges(cfg.trials, rows)
    if fork:
        pool, call = _forked_pool(chunk_fn, workers), _run_adopted
    else:
        pool, call = ThreadPoolExecutor(max_workers=workers), chunk_fn
    counts = np.zeros(shape, dtype=np.int64)
    redraws = completed = 0
    pending: deque = deque()
    with pool:
        while True:
            for t0, t1 in islice(chunks, 2 * workers - len(pending)):
                pending.append((pool.submit(call, t0, t1), t1 - t0))
            if not pending:
                return counts, redraws
            fut, size = pending.popleft()
            try:
                c, rd = fut.result()
            except Exception as exc:
                for queued, _ in pending:
                    queued.cancel()
                if isinstance(exc, InvariantError):
                    raise
                raise PartialResultError(
                    f"simulation stopped after {completed} of {cfg.trials} trials",
                    completed=completed,
                ) from exc
            counts += c
            redraws += rd
            completed += size


def _forked_pool(chunk_fn: Callable[[int, int], tuple], workers: int):
    """A pool of ``workers`` forked processes, each holding ``chunk_fn``.

    The function reaches the workers through the fork, not through pickle,
    so it may be a closure; only trial ranges and results are pickled.  The
    pool forks its workers before it starts a thread of its own.  Its
    modules are imported here so that only a run that forks pays for them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(chunk_fn,),
    )


# Set only in a forked worker: the chunk function it runs.
_adopted: Callable[[int, int], tuple] | None = None


def _adopt(chunk_fn: Callable[[int, int], tuple]) -> None:
    global _adopted
    _adopted = chunk_fn


def _run_adopted(t0: int, t1: int) -> tuple:
    return _adopted(t0, t1)


def _run_block(
    cfg: SimConfig, rows: int, wall: float, rate: str, work: int, **facts
) -> dict:
    """Volatile facts of one run, kept apart from the reproducible result."""
    # The package imports this module before it sets __version__, so the
    # version is read at run time, when the package is whole.
    from . import __version__

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "wall_time_s": round(wall, 3),
        **facts,
        "chunks": -(-cfg.trials // rows),
        rate: round(work / wall, 1) if wall > 0 else None,
        "numpy": np.__version__,
        "brokenrecords": __version__,
    }


def _base_meta(cfg: SimConfig, redraws: int, wall: float, mode: str) -> dict:
    return {
        "mode": mode,
        "n": cfg.n,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "kmax": cfg.kmax,
        "generator": GENERATOR,
        "words_per_trial": _words_per_trial(cfg.n),
        "tie_redraws": redraws,
        "run": _run_block(
            cfg, _rows_per_chunk(cfg.n), wall, "trials_per_s", cfg.trials,
            workers=_threads(cfg),
        ),
    }


def default_checkpoints(n: int) -> tuple[int, ...]:
    """Quarter, half, and full horizon, deduplicated and floored at 1."""
    return tuple(sorted({max(1, n // 4), max(1, n // 2), n}))


def _simulate_breaks(config: SimConfig, ts: tuple[int, ...]) -> dict[int, EmpiricalPmf]:
    """Break-count histograms at the sorted horizons ``ts`` of shared rows.

    Break counts above ``config.kmax`` land in the overflow bucket; the
    retained support is reported in full, zeros included, so equal
    configurations produce identical objects outside ``meta["run"]``.
    """
    start = time.perf_counter()
    width = config.kmax + 2

    def chunk(t0: int, t1: int) -> tuple[np.ndarray, int]:
        _, counts, rd = _break_counts(config.seed, config.n, t0, t1, ts)
        out = np.zeros((len(ts), width), dtype=np.int64)
        for row, b in enumerate(counts):
            tally = np.bincount(b, minlength=width)
            out[row, :-1] = tally[: width - 1]
            out[row, -1] = tally[width - 1 :].sum()
        return out, rd

    arr, redraws = _merge_chunks(
        config, chunk, (len(ts), width), _rows_per_chunk(config.n), _threads(config)
    )
    meta = _base_meta(config, redraws, time.perf_counter() - start, "break-count")
    return {
        t: EmpiricalPmf(
            n=t,
            trials=config.trials,
            counts={k: int(arr[row, k]) for k in range(min(config.kmax, t) + 1)},
            overflow=int(arr[row, config.kmax + 1]),
            kmax=config.kmax,
            meta=dict(meta),
        )
        for row, t in enumerate(ts)
    }


def simulate_b(config: SimConfig) -> EmpiricalPmf:
    """Empirical law of the number of records broken at the final step."""
    return _simulate_breaks(config, (config.n,))[config.n]


def simulate_b_checkpoints(
    config: SimConfig, checkpoints: tuple[int, ...] | None = None
) -> dict[int, EmpiricalPmf]:
    """Break-count histograms at several horizons of the same trajectories.

    Each checkpoint t histograms the breaks of step t, so its entry has
    the same law as a fresh run at n = t; sharing trajectories makes the
    horizons comparable draw for draw.  Ties are resolved on the full
    row, exactly as in ``simulate_b``, so the final-horizon histogram is
    identical to a plain run of the same configuration.
    """
    ts = default_checkpoints(config.n) if checkpoints is None else checkpoints
    ts = tuple(sorted({checked_int("checkpoints", t, None) for t in ts}))
    if not ts:
        raise UsageError("checkpoints must name at least one horizon")
    if ts[0] < 1 or ts[-1] > config.n:
        raise UsageError(f"checkpoints must lie in [1, {config.n}], got {ts}")
    result = _simulate_breaks(config, ts)
    for t, emp in result.items():
        emp.meta["checkpoint"] = t
        emp.meta["checkpoints"] = list(ts)
    return result


def simulate_r(config: SimConfig) -> EmpiricalPmf:
    """Empirical law of the record count after the full trajectory.

    Record counts are never pooled (the support is 1..n + 1 regardless of
    ``kmax``), so the sample mean and its standard error are always
    available.
    """
    start = time.perf_counter()

    def chunk(t0: int, t1: int) -> tuple[np.ndarray, int]:
        vals, rd = trial_values(config.seed, config.n, t0, t1)
        return np.bincount(record_counts(vals), minlength=config.n + 2), rd

    arr, redraws = _merge_chunks(
        config, chunk, config.n + 2, _rows_per_chunk(config.n), _threads(config)
    )
    counts = {r: int(arr[r]) for r in range(1, config.n + 2)}
    meta = _base_meta(config, redraws, time.perf_counter() - start, "record-count")
    return EmpiricalPmf(
        n=config.n,
        trials=config.trials,
        counts=counts,
        overflow=0,
        kmax=config.n + 1,
        meta=meta,
    )


def check_trajectory(
    stats: TrajectoryStats,
    values: list,
    *,
    seed: int | None = None,
    trial: int | None = None,
) -> None:
    """Raise InvariantError unless the trajectory history is coherent.

    Checks the record-count recursion against the break counts, the total
    balance, the staircase shape of the final records, and agreement with
    the definitional scan of the raw values.  ``values`` is the row that
    ``run_trajectory`` already screened for ties, so it is scanned with no
    second screen.
    """
    r_path, b_path = stats.r_path, stats.b_path
    if r_path[0] != 1:
        raise InvariantError(
            "first observation must stand as the single record",
            seed=seed,
            trial=trial,
            step=0,
        )
    for t in range(1, stats.n + 1):
        if r_path[t] != r_path[t - 1] + 1 - b_path[t - 1]:
            raise InvariantError(
                f"record count recursion failed at step {t}",
                seed=seed,
                trial=trial,
                step=t,
            )
    if stats.total_broken != stats.n + 1 - r_path[-1]:
        raise InvariantError(
            "total breaks do not balance the surviving records",
            seed=seed,
            trial=trial,
        )
    try:
        stats.final_records.validate()
    except ValueError as exc:
        raise InvariantError(
            f"final records are not a staircase: {exc}", seed=seed, trial=trial
        ) from exc
    if stats.final_records.time != stats.n:
        raise InvariantError(
            "newest record is not the final observation", seed=seed, trial=trial
        )
    if len(stats.final_records) != stats.r_path[-1]:
        raise InvariantError(
            "final record count disagrees with its own stack", seed=seed, trial=trial
        )
    if scan_distinct(values) != stats.final_records:
        raise InvariantError(
            "definitional scan disagrees with the incremental stack",
            seed=seed,
            trial=trial,
        )


def _audit_chunk(config: SimConfig, t0: int, t1: int) -> tuple[int, int]:
    """Replay trials [t0, t1) and check them; return (steps checked, redraws).

    Each trajectory runs through the incremental stack, is checked with
    ``check_trajectory``, and its final counts are compared against the
    vectorized chunk statistics.  The first discrepancy raises
    InvariantError with the trial coordinates.
    """
    vals, counts, redraws = _break_counts(config.seed, config.n, t0, t1, (config.n,))
    vec_b = counts[0].tolist()
    vec_r = record_counts(vals).tolist()
    for r in range(t1 - t0):
        trial = t0 + r
        row = vals[r].tolist()
        try:
            stats = run_trajectory(row)
        except TieError as exc:
            raise InvariantError(
                f"tie survived redraw in trial {trial}",
                seed=config.seed,
                trial=trial,
            ) from exc
        check_trajectory(stats, row, seed=config.seed, trial=trial)
        if stats.b_path and stats.b_path[-1] != vec_b[r]:
            raise InvariantError(
                "vectorized break count disagrees with the stack",
                seed=config.seed,
                trial=trial,
                step=config.n,
            )
        if stats.r_path[-1] != vec_r[r]:
            raise InvariantError(
                "vectorized record count disagrees with the stack",
                seed=config.seed,
                trial=trial,
                step=config.n,
            )
    return (t1 - t0) * config.n, redraws


def simulate_trajectory_audit(config: SimConfig) -> AuditReport:
    """Replay every trial step by step and verify all invariants.

    Trials are audited by ``_audit_chunk`` in ranges of one tile of rows
    (``_TILE_VALUES // _words_per_trial(n)``, at least one), in trial
    order.  The ranges go to ``min(workers, usable_cpus(), ranges)``
    forked processes, or run in-process when that is one or the platform
    cannot fork; ``run["workers"]`` says which.  The lowest failing trial
    raises InvariantError with its coordinates, under any worker count; a
    returned report means everything held.
    """
    start = time.perf_counter()
    rows = max(1, _TILE_VALUES // _words_per_trial(config.n))
    workers = 1
    if hasattr(os, "fork"):
        workers = min(_threads(config), -(-config.trials // rows))
    steps, redraws = _merge_chunks(
        config, functools.partial(_audit_chunk, config), (), rows, workers, fork=workers > 1
    )
    checked = int(steps)
    wall = time.perf_counter() - start
    return AuditReport(
        n=config.n,
        trials=config.trials,
        steps_checked=checked,
        tie_redraws=redraws,
        run=_run_block(config, rows, wall, "steps_per_s", checked, workers=workers),
    )
