"""Benchmark runner: runs brokenrecords CLI operations in fresh interpreters.

    python3 perfbench/run.py --workload sim-n500 --seed 1 --seconds 32 --trace 0

runs one workload in a closed loop, one operation at a time, each in a new
interpreter (see child.py), until the next operation would end after
``--seconds``.  It prints a table of every metric with its unit, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates traced and untraced
operations, so ``trace.overhead`` compares the two within one run.  The
set-up, run and wall times are restated at a reference host speed
measured by child.py's probe (see ``scaled``); the table also prints them
unscaled.

``--workload all`` interleaves every workload, one operation each in turn,
and prints all their metrics.  ``--smoke`` shrinks every operation to a
size that runs in about the interpreter's start-up time.  ``--out FILE``
appends one JSON record per workload, with its machine facts and every
sample, for compare.py.
"""
from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from compare import quartiles
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The last operation must end this long after --seconds at the latest.
GRACE_S = 120
CHILD_THREADS = str(min(2, os.cpu_count() or 1))
# Mean time of child.py's probe that the reported times refer to: about
# its median on the 2-vCPU Xeon host the benchmark was defined on.
PROBE_REF_S = 1e-3
SCALED = ("setup_s", "run_s", "wall_s")


def scaled(seconds: float, probe_s: float | None) -> float:
    """A time measured while the probe loop took ``probe_s`` on average,
    restated at the reference probe time: a host running the interpreter
    at half speed doubles both, so their ratio stays put."""
    return seconds if probe_s is None else seconds * PROBE_REF_S / probe_s


def run_op(
    workload: str, seed: int, traced: bool, smoke: bool, state: dict, timeout: float
) -> dict:
    """One CLI call in a fresh interpreter, timed and checked."""
    w = WORKLOADS[workload]
    spec = json.dumps({"argv": w.argv(seed, smoke), "trace": traced})
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD), str(SRC), spec]
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = CHILD_THREADS
    op = {"traced": traced, "ok": False}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        op["reason"] = f"no exit within {timeout:.0f} s"
        op["timed_out"] = True
        return op
    op["wall_s"] = time.perf_counter() - t0
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        op["reason"] = f"child exited {proc.returncode} without a record: {tail[0]}"
        return op
    output = record.pop("output")
    probe = record.pop("probe_s")
    op.update(record)
    if traced:
        op["layers"].update(spans.import_times(proc.stderr, op["setup_s"]))
    op["unscaled"] = {name: op[name] for name in SCALED}
    op["probe_us"] = (probe["all"] or 0.0) * 1e6
    op["setup_s"] = scaled(op["setup_s"], probe["setup"] or probe["all"])
    op["run_s"] = scaled(op["run_s"], probe["run"] or probe["all"])
    op["wall_s"] = scaled(op["wall_s"], probe["all"])
    if record["rc"] != 0:
        op["reason"] = f"exit code {record['rc']}: {proc.stderr.strip()[-200:]}"
        return op
    try:
        op["reason"] = w.check(output, state, seed, smoke)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        op["reason"] = f"unparseable output: {exc!r}"
    op["ok"] = op["reason"] is None
    if op["ok"]:
        op["work_per_s"] = w.work(output, smoke) / op["run_s"]
    return op


def measure(names: list[str], seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Closed loop over the named workloads, one operation at a time.

    Operations repeat until the next one would end after ``seconds`` (but
    at least ``min_ops`` per workload); none may end after ``seconds +
    GRACE_S``, so a run that regressed badly still ends in bounded time.
    """
    min_ops = 2 if smoke else 3
    ops: dict[str, list[dict]] = {name: [] for name in names}
    states: dict[str, dict] = {name: {} for name in names}
    start = time.perf_counter()
    for i in itertools.count():
        name = names[i % len(names)]
        done = ops[name]
        elapsed = time.perf_counter() - start
        walls = [op["wall_s"] for op in done if "wall_s" in op]
        next_end = elapsed + (statistics.median(walls) if walls else 0.0)
        if next_end > seconds + GRACE_S or (i >= min_ops * len(names) and next_end > seconds):
            break
        # A traced run alternates traced and untraced ops, traced first.
        traced = trace and len(done) % 2 == 0
        op = run_op(name, seed, traced, smoke, states[name], seconds + GRACE_S - elapsed)
        done.append(op)
        if op.get("timed_out"):
            break
        if op["reason"] is not None:
            sys.stderr.write(f"perfbench: {name} op {len(done)} failed: {op['reason']}\n")
    return ops


def summarize(ops: list[dict], trace: bool) -> dict | None:
    """Medians of the good operations of one workload, or None when no
    operation produced a timing record."""
    timed = [op for op in ops if "run_s" in op]
    if not timed:
        return None
    good = [op for op in timed if op["ok"]] or timed
    plain = [op for op in good if not op["traced"]]
    samples = {name: [op[name] for op in plain if name in op] for name in END_TO_END_UNITS}
    unscaled = {name: [op["unscaled"][name] for op in plain] for name in SCALED}
    unscaled["probe_us"] = [op["probe_us"] for op in plain]
    layers = {}
    if trace:
        traced = [op for op in good if op["traced"]] or [op for op in timed if op["traced"]]
        if not traced:
            return None
        layers = {
            name: statistics.median(op["layers"][name] for op in traced)
            for name in spans.LAYER_UNITS
            if name not in spans.RUNNER_LAYERS
        }
        traced_run = statistics.median(op["run_s"] for op in traced)
        plain_run = statistics.median(samples["run_s"]) if plain else traced_run
        layers["trace.overhead"] = traced_run / plain_run - 1
        layers["host.probe_us"] = statistics.median(op["probe_us"] for op in timed)
    return {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "reasons": sorted({op["reason"] for op in ops if not op["ok"]}),
        "samples": samples,
        "unscaled": unscaled,
        "metrics": {name: statistics.median(v) for name, v in samples.items() if v},
        "layers": layers,
        "versions": timed[0]["versions"],
    }


def machine_facts() -> dict:
    """CPU and cache facts of this machine; 'unknown' where unreadable."""
    facts = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level in (2, 3):
        facts[f"l{level}_cache"] = "unknown"
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == str(level):
                    facts[f"l{level}_cache"] = (index / "size").read_text().strip()
            except OSError:
                pass
    return facts


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_summary(name: str, summary: dict) -> None:
    unit = WORKLOADS[name].work_unit
    print(f"== {name}: {summary['attempted']} ops, {summary['failed']} failed")
    for reason in summary["reasons"]:
        print(f"   failure: {reason}")
    print(f"   {'metric':34} {'median':>14} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for metric, values in summary["samples"].items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        label = f"{metric} ({unit}_per_s)" if metric == "work_per_s" else metric
        print(f"   {label:34} {med:14.6g} {q1:12.6g} {q3:12.6g} {len(values):3d}  {END_TO_END_UNITS[metric]}")
    for metric, values in summary["unscaled"].items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        label, unit = ("probe", "us") if metric == "probe_us" else (f"unscaled {metric}", "s")
        print(f"   {label:34} {med:14.6g} {q1:12.6g} {q3:12.6g} {len(values):3d}  {unit}")
    rate = summary["failed"] / summary["attempted"]
    print(f"   {'error_rate':34} {rate:14.6g} {'':12} {'':12} {summary['attempted']:3d}  ratio")
    for metric, value in summary["layers"].items():
        print(f"   {metric:34} {value:14.6g} {'':12} {'':12} {'':3}  {spans.LAYER_UNITS[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny operations")
    parser.add_argument("--out", help="append per-workload result records here")
    args = parser.parse_args(argv)
    if not (SRC / "brokenrecords" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        return 2
    # Compile up front so no operation pays for writing bytecode.
    compileall.compile_dir(str(SRC), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    ops = measure(names, args.seed, args.seconds, trace, args.smoke)
    facts = machine_facts()
    head = {"commit": commit(), "seed": args.seed, "trace": args.trace, **facts}
    print("# " + " ".join(f"{k}={v}" for k, v in head.items()))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        summary = summarize(ops[name], trace)
        if summary is None:
            sys.stderr.write(f"perfbench: {name} produced no usable record\n")
            return 1
        print_summary(name, summary)
        attempted += summary["attempted"]
        failed += summary["failed"]
        if trace:
            found = {k: (v, spans.LAYER_UNITS[k]) for k, v in summary["layers"].items()}
        else:
            found = {k: (v, END_TO_END_UNITS[k]) for k, v in summary["metrics"].items()}
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(
            {prefix + k: {"value": v, "unit": unit} for k, (v, unit) in found.items()}
        )
        if args.out:
            record = {
                "workload": name,
                "smoke": args.smoke,
                "seconds": args.seconds,
                **head,
                "versions": summary["versions"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {**summary["metrics"], **summary["layers"]},
                "samples": summary["samples"],
                "unscaled_samples": summary["unscaled"],
            }
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
