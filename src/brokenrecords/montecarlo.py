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
The tie screen sorts one 32-bit half of each value, and only the rows
it flags are checked on 64 bits.  The break count of the last step reads
each row backward from X_n and stops at the first value above it, about
H_n columns per trial (the suffix after the last value above X_n has
length L with P[L >= l] = 1 / (l + 1)); it gathers only the rows still
live, in column blocks that double in width.
``simulate_trajectory_audit`` is the slow counterpart that replays each
trajectory through the incremental stack and checks conservation step
by step.  The replay is pure Python, so threads cannot share it: it runs
in ranges of one tile of rows, in trial order, on forked worker
processes, one per usable CPU, and in-process on one CPU, on one range
or where the platform cannot fork.

``simulate_b_suffix`` (``gof``, ``converge``) and ``simulate_r`` draw no
window.  The records of m exchangeable values, read from one end, sit at
indices that jump as j -> floor(j / U) + 1 from j = 1 (Nevzorov,
*Records*, 2001), about H_m draws.  R_n counts those of the n + 1 values;
B_n those of the suffix after the last value above X_n, whose length L
takes one more draw, so a trial of B_n takes under two at any n.  A raw
word w gives k = (w >> 11) + 1, uniform on 1..2**53, and U = k * 2**-53
on (0, 1], which is numpy's float64 draw (w >> 11) * 2**-53 plus 2**-53,
both exact.  L = min(n, 2**53 // k - 1), with P[L >= l] = floor(2**53 /
(l + 1)) / 2**53, is split off U by exact thresholds: U > 1/2 gives L =
0, U <= floor(2**53 / 3) * 2**-53 gives L >= 2 (at n >= 2), and only
those trials, about a third, take L = min(n, floor(1 / U) - 1) in
float64.  That floor is 2**53 // k for every k in 1..2**53.  If k divides
2**53, the quotient 2**53 / k is a float.  Otherwise it lies at least 1/k
below the next integer; with 2**e < 2**53 / k < 2**(e + 1), so that k <
2**(53 - e), rounding to nearest moves it by at most half a unit in the
last place, 2**(e - 53) < 1/k, so it stays below that integer, and it
cannot fall below its floor, which is a float.

The jumps run in float64, where U and every index below 2**53 are exact
(``simulate_r`` refuses n + 1 >= 2**53), so float64 rounding enters at
one place: the quotient j / U, rounded to nearest.  Integers below 2**53
are floats, so its floor is never too low, and it is one too high only
where j * 2**53 / k lies less than half a unit in the last place below
an integer (never at j = 1, as above); the next index is then one too
far, which can lose the record at the last index.  Trials fall into
fixed blocks of ``_SUFFIX_BLOCK``, and block b draws from its own
Philox4x64 key, (seed, 2**63 + b) for B_n and (seed, 2**63 + 2**62 + b)
for R_n, whose high words no window key reaches.  A block draws any L
for all its trials, then one jump for each trial still open, round by
round, so its counts depend on neither the workers nor the chunking; but
a trial's draws depend on its block's trial count, and no trial can be
replayed alone.  Each round draws its uniforms in one call, turns them
into jumps in place and gathers the open trials into new arrays, which
live no longer than the block.
"""
from __future__ import annotations

import functools
import math
import os
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
SUFFIX_GENERATOR = "philox4x64-suffix-length"
RECORD_GENERATOR = "philox4x64-record-jumps"
# Trials per block of the suffix sampler, a constant of its streams: a
# block's counts depend on its size, so changing it changes every count.
# A round holds at most one block's uniforms, open indices and jumps, and
# for B_n its lengths, 0.5 MiB each; a full block at n = 10**9 peaked at
# 0.84 MiB (B_n) and 2.07 MiB (R_n) traced: under 3 MiB.
_SUFFIX_BLOCK = 2**16
# High key words of block 0 of B_n and of R_n; window keys use 0.._MAX_REDRAWS.
_SUFFIX_KEY = 2**63
_RECORD_KEY = 2**63 + 2**62
_GRID = 2**53
# U <= _THIRD, and no larger U, gives L >= 2 at n >= 2.
_THIRD = (_GRID // 3) * 2.0**-53
# simulate_r's histogram stops at _MAX_RECORDS, so its width does not grow
# with n.  R_n sums independent Bernoulli(1 / i), i <= n + 1, so P[R_n >= m]
# <= H^m / m! with H = H_{n+1} < 38: under 10**-1000 at m = 1024.
_MAX_RECORDS = 1023
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
# The audit replays a trial as Python lists, about 125 bytes per value (peak
# RSS of one trial: 66, 159 and 1,004 MiB at n = 2.5 * 10**5, 10**6 and
# 2**23 - 1), so n + 1 <= 2**23 values keep it near the row cap's 2**30 bytes.
_MAX_REPLAY_VALUES = 2**23
# final_break_counts reads the live rows in column blocks of _FIRST_BLOCK,
# then twice and four times as many columns and so on, and takes
# _TILE_VALUES // _FIRST_BLOCK rows at a time.  Per 2**19-value chunk at
# n = 1 to 500 (2-CPU Xeon, medians of 31 interleaved runs), the walk was
# at most 9% slower with 8 than with 4 or 16, and at most 11% slower with a
# _TILE_VALUES of 2**16 than with the fastest of 2**14 to 2**18.
_FIRST_BLOCK = 8
# The tie screen works on tiles of about _TILE_VALUES values (whole rows, at
# least one).  Per 2**19-value chunk (2-CPU Xeon), 2**16 was within 12% of
# its fastest budget at n = 8 to 500 (medians of 101 runs) and within 15%
# of the fastest of 2**14 to 2**18 at n = 1 to 11 (medians of 31 runs).
_TILE_VALUES = 2**16


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
    integer is refused with UsageError (a numpy integer is kept as an int).
    The window sampler's entry points refuse an ``n`` whose trial row is
    over its cap with CapacityError, before any thread or draw, and the
    audit an ``n`` whose replay is over its own cap; the jump samplers
    have no row, and only ``simulate_r`` refuses an ``n``.
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
    """Raw Philox words of trials [t0, t1) at the given redraw attempt.

    A draw over the row cap's byte budget is refused before any word.
    """
    w = _words_per_trial(n)
    if 8 * w * (t1 - t0) > _MAX_ROW_BYTES:
        raise CapacityError(
            f"trials [{t0}, {t1}) at n={n} take {8 * w * (t1 - t0)} bytes, over "
            f"the {_MAX_ROW_BYTES}-byte cap of the window sampler"
        )
    bg = np.random.Philox(key=seed + (attempt << 64), counter=t0 * (w // 4))
    return bg.random_raw((t1 - t0, w))[:, : n + 1]


def _row_has_tie(row: np.ndarray) -> bool:
    s = np.sort(row)
    return bool((s[1:] == s[:-1]).any())


def _redraw(vals: np.ndarray, rows: np.ndarray, seed: int, n: int, t0: int) -> int:
    """Redraw each of ``rows`` that holds a true tie; return the redraw count.

    Each row is checked on its own with the exact 64-bit test that the
    redraws use, so a row flagged only by the screen's false alarm is kept.
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
    truly tied rows among those that ``_half_word_screen`` flags, and
    ``final_break_counts`` counts the prefix of the rows at each horizon.
    """
    vals = _raw_rows(seed, n, t0, t1, 0)
    redraws = _redraw(vals, _half_word_screen(vals), seed, n, t0)
    return vals, np.array([final_break_counts(vals[:, : t + 1]) for t in ts]), redraws


def final_break_counts(vals: np.ndarray) -> np.ndarray:
    """Records broken by the last observation of each row of distinct values.

    Walks each row backward from its last value X_n with the running
    maximum of the columns already read: a column counts when it beats
    that maximum and stays below X_n.  The first value above X_n ends the
    row, since every record before it lies above X_n too.  After X_{n-1},
    the rows still live are gathered, column-major, in blocks of
    ``_FIRST_BLOCK`` columns, then twice and four times as many and so on,
    dropping rows as they end, a tile of ``_TILE_VALUES // _FIRST_BLOCK``
    rows at a time.  Expected work is O(log n) values per row, and no
    temporary holds more than a tile's rows.
    """
    rows, m = vals.shape
    if m < 2:
        raise UsageError(f"a break count needs rows of at least 2 values, got {m}")
    counts = np.zeros(rows, dtype=np.int64)
    size = _TILE_VALUES // _FIRST_BLOCK
    for r0 in range(0, rows, size):
        # Column j of a tile holds X_{n-j}.
        tile, cnt = vals[r0 : r0 + size, ::-1], counts[r0 : r0 + size]
        mx, below = tile[:, 1], tile[:, 0]
        live = np.flatnonzero(mx < below)
        cnt[live] = 1
        mx, below = mx[live], below[live]
        lo, width = 2, _FIRST_BLOCK
        while lo < m and live.size:
            block = tile[live, lo : lo + width].T.copy()
            smax = np.maximum.accumulate(block)
            hit = block == smax
            hit &= block > mx
            hit &= block < below
            cnt[live] += hit.sum(axis=0)
            np.maximum(mx, smax[-1], out=mx)
            keep = mx < below
            live, mx, below = live[keep], mx[keep], below[keep]
            lo, width = lo + width, 2 * width
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
    rows: int,
    workers: int,
    fork: bool = False,
) -> tuple:
    """Run ``chunk_fn`` over the trials, ``rows`` at a time, and add up its counts.

    Ranges go in trial order to ``workers`` threads, or with ``fork`` to
    that many forked processes, with at most two per worker in flight, and
    are summed in that order from 0, so the sum takes the shape of the
    first range's counts; one thread is the serial case.  Memory therefore
    follows the window, not the range count.  On the first failure in
    trial order the queued ranges are cancelled: an InvariantError passes
    through unchanged, and any other failure, a dead worker included,
    becomes PartialResultError whose ``completed`` counts the exact prefix
    of trials already summed.
    """
    chunks = _chunk_ranges(cfg.trials, rows)
    if fork:
        pool, call = _forked_pool(chunk_fn, workers), _run_adopted
    else:
        pool, call = ThreadPoolExecutor(max_workers=workers), chunk_fn
    counts = redraws = completed = 0
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


def _base_meta(cfg: SimConfig, wall: float, mode: str, rows: int, **sampler) -> dict:
    """The reproducible facts of a run, its sampler's among them, and its run block."""
    return {
        "mode": mode,
        "n": cfg.n,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "kmax": cfg.kmax,
        **sampler,
        "run": _run_block(cfg, rows, wall, "trials_per_s", cfg.trials, workers=_threads(cfg)),
    }


def default_checkpoints(n: int) -> tuple[int, ...]:
    """Quarter, half, and full horizon, deduplicated and floored at 1."""
    return tuple(sorted({max(1, n // 4), max(1, n // 2), n}))


def _pooled(tally: np.ndarray | list[int], width: int) -> np.ndarray:
    """The ``width``-bin histogram of ``tally``: its bins 0..width - 2, zeros
    past its end, and a top bin that pools the rest."""
    out = np.zeros(width, dtype=np.int64)
    np.add.at(out, np.minimum(np.arange(len(tally)), width - 1), tally)
    return out


def _break_pmf(config: SimConfig, t: int, hist: np.ndarray, meta: dict) -> EmpiricalPmf:
    """The pmf of B_t from its pooled histogram: k = 0..min(kmax, t), zeros
    included, and the overflow in the top bin."""
    return EmpiricalPmf(
        n=t,
        trials=config.trials,
        counts={k: int(hist[k]) for k in range(min(config.kmax, t) + 1)},
        overflow=int(hist[-1]),
        kmax=config.kmax,
        meta=dict(meta),
    )


def simulate_b_checkpoints(
    config: SimConfig, checkpoints: tuple[int, ...] | None = None
) -> dict[int, EmpiricalPmf]:
    """Break-count histograms at several horizons of the same trajectories.

    Each checkpoint t histograms the breaks of step t, so its entry has
    the same law as a fresh run at n = t; sharing trajectories makes the
    horizons comparable draw for draw.  Ties are resolved on the full
    row, so the final-horizon histogram is that of ``simulate_b``, which
    is this run at the one horizon n.  Break counts above ``config.kmax``
    land in the overflow bucket; the retained support is reported in
    full, zeros included, so equal configurations produce identical
    objects outside ``meta["run"]``.  Since B_t <= t <= n, the histograms
    stop at min(kmax, n) with the overflow in one more bin, however large
    kmax is.
    """
    ts = default_checkpoints(config.n) if checkpoints is None else checkpoints
    ts = tuple(sorted({checked_int("checkpoints", t, None) for t in ts}))
    if not ts:
        raise UsageError("checkpoints must name at least one horizon")
    if ts[0] < 1 or ts[-1] > config.n:
        raise UsageError(f"checkpoints must lie in [1, {config.n}], got {ts}")
    start = time.perf_counter()
    rows = _rows_per_chunk(config.n)  # refuses a row over the cap before any draw
    width = min(config.kmax, config.n) + 2

    def chunk(t0: int, t1: int) -> tuple[np.ndarray, int]:
        _, counts, rd = _break_counts(config.seed, config.n, t0, t1, ts)
        return np.array([_pooled(np.bincount(b), width) for b in counts]), rd

    arr, redraws = _merge_chunks(config, chunk, rows, _threads(config))
    meta = _base_meta(
        config, time.perf_counter() - start, "break-count", rows,
        generator=GENERATOR, words_per_trial=_words_per_trial(config.n), tie_redraws=redraws,
    )
    return {t: _break_pmf(config, t, hist, meta) for t, hist in zip(ts, arr)}


def simulate_b(config: SimConfig) -> EmpiricalPmf:
    """Empirical law of the number of records broken at the final step."""
    return simulate_b_checkpoints(config, (config.n,))[config.n]


def _uniforms(gen: np.random.Generator, size: int) -> np.ndarray:
    """The block's next ``size`` draws of U = k * 2**-53: a word w gives
    (w >> 11) * 2**-53 exactly, and adding 2**-53 is exact."""
    u = gen.random(size)
    u += 2.0**-53
    return u


def _suffix_lengths(u: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Of uniforms U, the count with L = 0 and, in trial order, the float64
    lengths L >= 2: U > 1/2 gives L = 0 and, at n >= 2, U <= _THIRD gives
    L >= 2, where L = min(n, floor(1 / U) - 1)."""
    zero = int(np.count_nonzero(u > 0.5))
    last = u.take(np.flatnonzero(u <= (_THIRD if n > 1 else 0.0)), mode="clip")
    np.divide(1.0, last, out=last)
    np.floor(last, out=last)
    last -= 1
    return zero, np.minimum(last, min(n, _GRID), out=last)


def _record_jumps(
    gen: np.random.Generator, size: int, last: np.ndarray | float, tally: list[int]
) -> list[int]:
    """Add the record counts of ``size`` sequences of ``last`` values to ``tally``.

    ``last`` holds float64 lengths of at least 2, or one length for all,
    and ``tally[r]`` counts the sequences with r records; it comes in with
    the bins r = 0 and 1.  Index 1 is a record.  In round r each open
    sequence holds r records and jumps once: it ends with r + 1 if it
    lands on its length, r past it.
    """
    j = 1.0
    while size:
        nxt = _uniforms(gen, size)
        np.divide(j, nxt, out=nxt)
        np.floor(nxt, out=nxt)
        nxt += 1
        at = int(np.count_nonzero(nxt == last))
        # Indices and take(mode="clip"), not compress or a boolean mask: a
        # mask and two gathers of 2**16 values took 353 against 397 and 943 us.
        keep = np.flatnonzero(nxt < last)
        tally[-1] += size - keep.size - at
        tally.append(at)
        j = nxt.take(keep, mode="clip")
        if np.ndim(last):
            last = last.take(keep, mode="clip")
        size = keep.size
    return tally


def _block_generator(seed: int, key: int, t0: int) -> np.random.Generator:
    """The generator of the block of trial t0, keyed (seed, key + block)."""
    return np.random.Generator(np.random.Philox(key=seed + ((key + t0 // _SUFFIX_BLOCK) << 64)))


def _suffix_tally(seed: int, n: int, t0: int, t1: int) -> list[int]:
    """Tallies of B_n = 0, 1, 2, ... over trials [t0, t1), which lie in one
    block: L for every trial, then the record jumps of every L > 1."""
    gen = _block_generator(seed, _SUFFIX_KEY, t0)
    zero, last = _suffix_lengths(_uniforms(gen, t1 - t0), n)
    return _record_jumps(gen, last.size, last, [zero, t1 - t0 - zero - last.size])


def _record_tally(seed: int, n: int, t0: int, t1: int) -> list[int]:
    """Tallies of R_n = 0, 1, 2, ... over trials [t0, t1), which lie in one
    block; raises past ``_MAX_RECORDS`` records."""
    gen = _block_generator(seed, _RECORD_KEY, t0)
    tally = _record_jumps(gen, t1 - t0, n + 1.0, [0, 0])
    if any(tally[_MAX_RECORDS + 1 :]):
        raise RuntimeError(f"a trial holds over {_MAX_RECORDS} records")
    return tally


def _jump_run(
    config: SimConfig, tally: Callable, width: int, mode: str, generator: str
) -> tuple[np.ndarray, dict]:
    """The ``width``-bin histogram of ``tally``'s blocks (the top bin pools
    the rest) on the chunk scheduler's threads, and the run's meta."""
    start = time.perf_counter()

    def block(t0: int, t1: int) -> tuple[np.ndarray, int]:
        return _pooled(tally(config.seed, config.n, t0, t1), width), 0

    arr, _ = _merge_chunks(config, block, _SUFFIX_BLOCK, _threads(config))
    return arr, _base_meta(
        config, time.perf_counter() - start, mode, _SUFFIX_BLOCK,
        generator=generator, trials_per_block=_SUFFIX_BLOCK,
    )


def simulate_b_suffix(config: SimConfig) -> EmpiricalPmf:
    """Empirical law of B_n from suffix lengths and record jumps: the law
    of ``simulate_b`` but not its counts, at any n."""
    width = min(config.kmax, config.n) + 2
    arr, meta = _jump_run(config, _suffix_tally, width, "break-count", SUFFIX_GENERATOR)
    return _break_pmf(config, config.n, arr, meta)


def simulate_r(config: SimConfig) -> EmpiricalPmf:
    """Empirical law of the record count after the full trajectory.

    Each trial takes the record jumps of n + 1 values; n + 1 >= 2**53 is
    refused with CapacityError before any thread or draw.  Counts are never
    pooled (``counts`` lists r = 1..min(n + 1, ``_MAX_RECORDS``)), so the
    sample mean and its standard error are always available.
    """
    if config.n + 1 >= _GRID:
        raise CapacityError(f"record counts need n + 1 < 2**53, got n={config.n}")
    width = min(config.n + 1, _MAX_RECORDS) + 1
    arr, meta = _jump_run(config, _record_tally, width, "record-count", RECORD_GENERATOR)
    return EmpiricalPmf(
        n=config.n,
        trials=config.trials,
        counts={r: int(arr[r]) for r in range(1, width)},
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
    fail = functools.partial(InvariantError, seed=seed, trial=trial)
    r_path, b_path = stats.r_path, stats.b_path
    if r_path[0] != 1:
        raise fail("first observation must stand as the single record", step=0)
    for t in range(1, stats.n + 1):
        if r_path[t] != r_path[t - 1] + 1 - b_path[t - 1]:
            raise fail(f"record count recursion failed at step {t}", step=t)
    if stats.total_broken != stats.n + 1 - r_path[-1]:
        raise fail("total breaks do not balance the surviving records")
    try:
        stats.final_records.validate()
    except ValueError as exc:
        raise fail(f"final records are not a staircase: {exc}") from exc
    if stats.final_records.time != stats.n:
        raise fail("newest record is not the final observation")
    if len(stats.final_records) != stats.r_path[-1]:
        raise fail("final record count disagrees with its own stack")
    if scan_distinct(values) != stats.final_records:
        raise fail("definitional scan disagrees with the incremental stack")


def _audit_chunk(config: SimConfig, t0: int, t1: int) -> tuple[int, int]:
    """Replay trials [t0, t1) and check them; return (steps checked, redraws).

    Each trajectory runs through the incremental stack and is checked with
    ``check_trajectory``, the definitional scan included, and its final
    break count is compared against ``final_break_counts``.  The first
    discrepancy raises InvariantError with the trial coordinates.
    """
    vals, counts, redraws = _break_counts(config.seed, config.n, t0, t1, (config.n,))
    vec_b = counts[0].tolist()
    for r in range(t1 - t0):
        trial = t0 + r
        fail = functools.partial(InvariantError, seed=config.seed, trial=trial)
        row = vals[r].tolist()
        try:
            stats = run_trajectory(row)
        except TieError as exc:
            raise fail(f"tie survived redraw in trial {trial}") from exc
        check_trajectory(stats, row, seed=config.seed, trial=trial)
        if stats.b_path[-1] != vec_b[r]:
            raise fail("vectorized break count disagrees with the stack", step=config.n)
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
    rows = max(1, _TILE_VALUES // _words_per_trial(config.n))  # refuses an oversized row
    if config.n + 1 > _MAX_REPLAY_VALUES:
        raise CapacityError(
            f"one trial's replay at n={config.n} holds {config.n + 1} values, "
            f"over the {_MAX_REPLAY_VALUES}-value cap of the audit replay"
        )
    workers = 1
    if hasattr(os, "fork"):
        workers = min(_threads(config), -(-config.trials // rows))
    checked, redraws = _merge_chunks(
        config, functools.partial(_audit_chunk, config), rows, workers, fork=workers > 1
    )
    wall = time.perf_counter() - start
    return AuditReport(
        n=config.n,
        trials=config.trials,
        steps_checked=checked,
        tie_redraws=redraws,
        run=_run_block(config, rows, wall, "steps_per_s", checked, workers=workers),
    )
