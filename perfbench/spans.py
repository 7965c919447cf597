"""Spans around the package's layers, recorded from outside the package.

``install`` replaces public functions at the names their callers look up
(module globals such as ``montecarlo.trial_values`` and
``reports.joint_tail_prob_fast``, and the entries of ``cli._HANDLERS`` and
``cli._EMITTERS``) with wrappers that time each call and count its work.
Spans stay in memory and are turned into per-layer metrics once the run
ends.

A span's self time is the part of its interval in which no child span of
its own is open.  Where spans overlap on worker threads, each instant is
split evenly among the innermost spans open at that instant, so the self
times of all spans add up to the traced run time however many threads
ran.
"""
from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

SPAN_NAMES = (
    "cli.main",
    "reports.build",
    "reports.emit",
    "reports.chi_square_fit",
    "exact.joint_tail_prob_fast",
    "oracle.oracle_joint",
    "montecarlo.simulate",
    "montecarlo.chunk",
    "montecarlo.trial_values",
    "montecarlo.final_break_counts",
    "montecarlo.record_counts",
    "montecarlo.audit",
    "montecarlo.check_trajectory",
    "records.run_trajectory",
    "records.records_by_scan",
)

SETUP_LAYERS = (
    "setup.numpy_import_s",
    "setup.scipy_stats_import_s",
    "setup.brokenrecords_import_s",
)

DERIVED_UNITS = {
    "montecarlo.values_drawn": "count",
    "montecarlo.values_per_s": "1/s",
    "montecarlo.bytes_computed": "B",
    "montecarlo.tie_redraws": "count",
    "montecarlo.redraw_ratio": "ratio",
    "montecarlo.parallel_busy_ratio": "ratio",
    "oracle.permutations": "count",
    "records.steps": "count",
    "trace.self_sum_ratio": "ratio",
}

# Per-layer metrics that run.py derives from whole operations rather
# than from one child's spans: the traced against the untraced run time,
# and the median time of child.py's host-speed probe.
RUNNER_LAYERS = {"trace.overhead": "ratio", "host.probe_us": "us"}

# Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    **{layer: "s" for layer in SETUP_LAYERS},
    **{
        f"{name}.{kind}": unit
        for name in SPAN_NAMES
        for kind, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))
    },
    **DERIVED_UNITS,
    **RUNNER_LAYERS,
}


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0


class Recorder:
    """Spans and work counts of one traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        """Time the body as a span; ``parent`` is used on a thread that has
        no open span of its own."""
        stack = self._stack()
        s = Span(name, stack[-1] if stack else parent)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def add(self, **counts: float) -> None:
        with self._lock:
            self.counts.update(counts)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(s, args, result)
            return result

        return wrapper

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of this operation, except set-up and overhead."""
        self_s = attribute_self_time(self.spans)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            mine = [s for s in self.spans if s.name == name]
            out[f"{name}.s"] = math.fsum(s.end - s.start for s in mine)
            out[f"{name}.self_s"] = math.fsum(self_s[s] for s in mine)
            out[f"{name}.calls"] = len(mine)
        c = self.counts
        draw_s = out["montecarlo.trial_values.s"]
        out["montecarlo.values_drawn"] = c["values"]
        out["montecarlo.values_per_s"] = c["values"] / draw_s if draw_s else 0.0
        out["montecarlo.bytes_computed"] = 8 * c["values"]
        out["montecarlo.tie_redraws"] = c["redraws"]
        out["montecarlo.redraw_ratio"] = c["redraws"] / c["trials"] if c["trials"] else 0.0
        worker_s = c["worker_seconds"]
        out["montecarlo.parallel_busy_ratio"] = (
            out["montecarlo.chunk.s"] / worker_s if worker_s else 0.0
        )
        out["oracle.permutations"] = c["permutations"]
        out["records.steps"] = c["steps"]
        out["trace.self_sum_ratio"] = math.fsum(self_s.values()) / run_s
        return out


def attribute_self_time(spans: list[Span]) -> dict[Span, float]:
    """Self time of every span, splitting overlapped instants evenly among
    the innermost spans open at that instant."""
    events = sorted(
        [(s.start, 1, i) for i, s in enumerate(spans)]
        + [(s.end, 0, i) for i, s in enumerate(spans)]
    )
    self_s = {s: 0.0 for s in spans}
    open_children: dict[Span, int] = {}
    leaves: set[Span] = set()
    last = events[0][0] if events else 0.0
    for t, is_start, i in events:
        if leaves:
            share = (t - last) / len(leaves)
            for s in leaves:
                self_s[s] += share
        last = t
        s = spans[i]
        parent = s.parent if s.parent in open_children else None
        if is_start:
            open_children[s] = 0
            leaves.add(s)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[s]
            leaves.discard(s)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_s


def _patch(rec: Recorder, module, attr: str, name: str, on_result=None) -> None:
    fn = getattr(module, attr, None)
    if fn is None:
        sys.stderr.write(f"perfbench: {module.__name__}.{attr} is gone; {name} reads zero\n")
        return
    setattr(module, attr, rec.wrap(name, fn, on_result))


def install(rec: Recorder) -> None:
    """Wrap every traced layer of the imported package."""
    from brokenrecords import cli, montecarlo, oracle, reports

    for table, name in ((cli._HANDLERS, "reports.build"), (cli._EMITTERS, "reports.emit")):
        for key, fn in list(table.items()):
            table[key] = rec.wrap(name, fn)

    def simulated(span, args, result):
        rec.add(worker_seconds=args[0].workers * (span.end - span.start))

    def drawn(span, args, result):
        vals, redraws = result
        rows, width = vals.shape
        rec.add(values=(rows + redraws) * width, redraws=redraws, trials=rows)

    enumerated = getattr(getattr(oracle, "_enumerate", None), "cache_info", None)

    def enumerated_count(span, args, result):
        # Count (n+1)! only when the enumeration really ran, not on a cache hit.
        n = result.n
        if enumerated is None or enumerated().misses > rec.counts["enum_misses"]:
            rec.add(permutations=math.factorial(n + 1), enum_misses=1)

    def replayed(span, args, result):
        rec.add(steps=result.n)

    _patch(rec, cli, "simulate_trajectory_audit", "montecarlo.audit")
    _patch(rec, reports, "simulate_b", "montecarlo.simulate", simulated)
    _patch(rec, reports, "chi_square_fit", "reports.chi_square_fit")
    _patch(rec, reports, "joint_tail_prob_fast", "exact.joint_tail_prob_fast")
    _patch(rec, reports, "oracle_joint", "oracle.oracle_joint", enumerated_count)
    _patch(rec, montecarlo, "trial_values", "montecarlo.trial_values", drawn)
    _patch(rec, montecarlo, "final_break_counts", "montecarlo.final_break_counts")
    _patch(rec, montecarlo, "record_counts", "montecarlo.record_counts")
    _patch(rec, montecarlo, "check_trajectory", "montecarlo.check_trajectory")
    _patch(rec, montecarlo, "run_trajectory", "records.run_trajectory", replayed)
    _patch(rec, montecarlo, "records_by_scan", "records.records_by_scan")

    merge = getattr(montecarlo, "_merge_chunks", None)
    if merge is None:
        sys.stderr.write("perfbench: montecarlo._merge_chunks is gone; montecarlo.chunk reads zero\n")
        return

    @functools.wraps(merge)
    def merge_chunks(cfg, chunk_fn, *rest, **kwargs):
        # Chunks run on pool threads with no open span; parent them to the
        # span that called the merge so their time nests under it.
        parent = rec.current()

        def chunk(*args, **kw):
            with rec.span("montecarlo.chunk", parent):
                return chunk_fn(*args, **kw)

        return merge(cfg, chunk, *rest, **kwargs)

    montecarlo._merge_chunks = merge_chunks


def import_times(stderr: str, setup_s: float) -> dict[str, float]:
    """Set-up split from ``python -X importtime`` output written before the
    child's set-up marker: numpy, scipy.stats without any numpy it pulled
    in, and the rest of ``import brokenrecords.cli``."""
    entries = []
    for line in stderr.split("perfbench: setup done")[0].splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[1]) / 1e6))

    def cumulative(target: str, exclude: str | None = None) -> float:
        for i, (depth, name, cum) in enumerate(entries):
            if name != target:
                continue
            nested = 0.0
            j = i - 1  # importtime lists a module after everything it imported
            while j >= 0 and entries[j][0] > depth:
                if entries[j][1] == exclude:
                    nested += entries[j][2]
                j -= 1
            return cum - nested
        return 0.0

    numpy_s = cumulative("numpy")
    scipy_s = cumulative("scipy.stats", exclude="numpy")
    return {
        "setup.numpy_import_s": numpy_s,
        "setup.scipy_stats_import_s": scipy_s,
        "setup.brokenrecords_import_s": setup_s - numpy_s - scipy_s,
    }
