"""Tests of the benchmark itself, on smoke-sized operations.

    python3 -m pytest perfbench -q

They start a few interpreters each and take well under a minute.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import spans
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def cli_output(argv: list[str]) -> str:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from brokenrecords import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_benchmark_json_names_what_the_runs_print():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.LAYER_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    lines, result = bench("--workload", "all", "--smoke", "--seconds", "1", "--trace", trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(WORKLOADS)
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    table = "\n".join(lines[:-1])
    for name in WORKLOADS:
        assert f"== {name}:" in table
        for m in expected:
            got = result["metrics"][f"{name}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    assert table.count("error_rate") == len(WORKLOADS)
    if trace == "1":
        for name in WORKLOADS:
            ratio = result["metrics"][f"{name}.trace.self_sum_ratio"]["value"]
            assert 0.9 < ratio <= 1.0


def test_missing_source_fails_without_a_result(tmp_path):
    for f in ("run.py", "child.py", "spans.py", "workloads.py", "compare.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / f).write_text((HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-n500", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def tamper_sim(output: str) -> str:
    report = json.loads(output)
    trials = report["meta"]["trials"]
    report["rows"][0]["empirical"] -= 1 / trials  # move one trial from k=0 to k=1
    report["rows"][1]["empirical"] += 1 / trials
    return json.dumps(report)


def tamper_gof(output: str) -> str:
    head, _, last = output.rstrip("\n").rpartition("\n")
    cells = last.split()
    cells[4] = "1e-9"
    return f"{head}\n{'  '.join(cells)}\n"


def tamper_converge(output: str) -> str:
    return output.replace("\n2,1,1/3,1/6,1/3,", "\n2,1,1/3,1/6,1/4,", 1)


def tamper_audit(output: str) -> str:
    report = json.loads(output)
    report["rows"][0]["steps_checked"] -= 1
    return json.dumps(report)


@pytest.mark.parametrize(
    "name, tamper, standalone",
    [("sim-n500", tamper_sim, False), ("gof-n8", tamper_gof, True),
     ("converge-sweep", tamper_converge, True), ("audit-n100", tamper_audit, True)],
)
def test_tampered_output_is_flagged(name, tamper, standalone):
    # standalone: caught on its own, not only as a difference from an
    # earlier rep.
    w = WORKLOADS[name]
    output = cli_output(w.argv(5, True))
    state: dict = {}
    assert w.check(output, state, 5, True) is None
    assert w.check(output, state, 5, True) is None
    bad = tamper(output)
    assert bad != output
    assert w.check(bad, state, 5, True) is not None
    if standalone:
        assert w.check(bad, {}, 5, True) is not None


def test_sim_counts_are_pinned_at_the_default_seed():
    w = WORKLOADS["sim-n500"]
    output = cli_output(w.argv(DEFAULT_SEED, False))
    assert w.check(output, {}, DEFAULT_SEED, False) is None
    reason = w.check(tamper_sim(output), {}, DEFAULT_SEED, False)
    assert reason is not None and "pinned" in reason


def test_failed_check_counts_as_a_failure(monkeypatch, capsys):
    w = WORKLOADS["audit-n100"]
    broken = Workload(w.name, w.argv, lambda *a: "forced failure", w.work_unit, w.work)
    monkeypatch.setitem(run.WORKLOADS, w.name, broken)
    assert run.main(["--workload", w.name, "--smoke", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_overlapping_spans_share_their_time():
    parent = spans.Span("p", None)
    parent.start, parent.end = 0.0, 10.0
    a, b = spans.Span("a", parent), spans.Span("b", parent)
    a.start, a.end = 1.0, 5.0
    b.start, b.end = 3.0, 7.0
    self_s = spans.attribute_self_time([a, b, parent])
    assert self_s == {parent: 4.0, a: 3.0, b: 3.0}


def test_import_times_split_setup():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |     200000 |     numpy",
        "import time:       100 |     300000 |   brokenrecords",
        "import time:       100 |     600000 |     scipy.stats",
        "import time:       100 |    1000000 | brokenrecords.cli",
        "perfbench: setup done",
        "import time:       100 |     900000 | late.module",
    ])
    got = spans.import_times(stderr, 1.1)
    assert got["setup.numpy_import_s"] == pytest.approx(0.2)
    assert got["setup.scipy_stats_import_s"] == pytest.approx(0.6)
    assert got["setup.brokenrecords_import_s"] == pytest.approx(0.3)


def write_runs(path: Path, values: list[float]) -> None:
    with open(path, "w") as fh:
        for v in values:
            metrics = {"setup_s": 1.0, "run_s": v, "wall_s": v + 1, "work_per_s": 1 / v,
                       "peak_rss_mb": 100.0}
            fh.write(json.dumps({"workload": "sim-n500", "trace": 0, "smoke": False,
                                 "attempted": 5, "failed": 0, "metrics": metrics}) + "\n")


@pytest.mark.parametrize(
    "new, verdict",
    [([2.0, 2.01, 1.99, 2.0], "within bound"),
     ([1.0, 1.01, 0.99, 1.0], "better"),
     ([3.0, 3.01, 2.99, 3.0], "worse"),
     ([1.0, 3.0, 2.0, 4.0], "unresolved")],
)
def test_compare_verdicts(tmp_path, new, verdict):
    write_runs(tmp_path / "base.jsonl", [2.0, 2.02, 1.98, 2.01])
    write_runs(tmp_path / "new.jsonl", new)
    rows = compare.compare(str(tmp_path / "base.jsonl"), str(tmp_path / "new.jsonl"))
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["run_s"]["verdict"] == verdict
    assert by_metric["error_rate"]["verdict"] == "within bound"


def test_an_operation_past_the_grace_period_is_cut_off(monkeypatch):
    monkeypatch.setattr(run, "GRACE_S", 0.0)
    ops = run.measure(["audit-n100"], DEFAULT_SEED, 0.3, False, True)["audit-n100"]
    assert len(ops) == 1 and ops[0]["timed_out"] and not ops[0]["ok"]


def test_times_are_restated_at_the_reference_probe_speed():
    assert run.scaled(2.0, 2 * run.PROBE_REF_S) == 1.0
    assert run.scaled(2.0, None) == 2.0
    op = run.run_op("converge-sweep", DEFAULT_SEED, False, True, {}, 60)
    assert op["ok"] and op["probe_us"] > 0
    for name in run.SCALED:
        assert op["unscaled"][name] > 0 and op[name] > 0
