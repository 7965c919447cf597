"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one record per benchmark run and workload.  For every
workload and end-to-end metric this prints one row: each side's median
and quartiles over its untraced runs, the change of the new median
against the base median (positive is worse), the metric's bound from
BENCHMARK.json, and a verdict:

- ``unresolved``: the spread between one side's quartiles, as a share of
  its median, exceeds the bound, and neither side beats the other in
  every run;
- ``worse``: otherwise, when the new median is worse than the base median
  by more than the bound;
- ``better``: otherwise, when every new run beats every base run;
- ``within bound``: otherwise.

``error_rate`` (failed operations / attempted) has a bound of zero and no
spread test: any rise of its median is ``worse``.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per untraced full-size run."""
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] or record["smoke"]:
                continue
            metrics = runs.setdefault(record["workload"], {})
            values = {**record["metrics"], "error_rate": record["failed"] / record["attempted"]}
            for name, value in values.items():
                metrics.setdefault(name, []).append(value)
    return runs


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[float, str]:
    """Relative worsening of the new median, and the verdict for it."""
    sign = 1 if better == "lower" else -1
    b_med, n_med = statistics.median(base), statistics.median(new)
    if b_med == 0:
        change = 0.0 if n_med == 0 else sign * float("inf")
    else:
        change = sign * (n_med - b_med) / b_med
    if sign == 1:
        new_beats, base_beats = max(new) < min(base), max(base) < min(new)
    else:
        new_beats, base_beats = min(new) > max(base), min(base) > max(new)
    noisy = bound > 0 and max(spread(base), spread(new)) > bound
    if noisy and not (new_beats or base_beats):
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if new_beats:
        return change, "better"
    return change, "within bound"


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path: str, new_path: str, bench_path: Path = BENCHMARK) -> list[dict]:
    spec = json.loads(bench_path.read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("error_rate", "ratio", "lower", 0.0))
    base, new = load(base_path), load(new_path)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for name, unit, better, bound in metrics:
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            change, word = verdict(b, n, better, bound)
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "base": quartiles(b), "new": quartiles(n), "runs": (len(b), len(n)),
                "change": change, "bound": bound, "verdict": word,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    rows = compare(*argv)
    if not rows:
        sys.stderr.write("no workload has untraced full-size runs in both files\n")
        return 1
    print(f"{'workload':15} {'metric':12} {'unit':6} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'runs':>7} {'change':>8} {'bound':>6}  verdict")
    for r in rows:
        cells = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*r[side]) for side in ("base", "new")]
        print(f"{r['workload']:15} {r['metric']:12} {r['unit']:6} {cells[0]:>34} {cells[1]:>34} "
              f"{'%d/%d' % r['runs']:>7} {r['change']:+8.2%} {r['bound']:6.2f}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
