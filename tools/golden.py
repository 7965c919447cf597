"""Write the golden outputs of every CLI command, for a byte-level diff.

Runs a fixed list of invocations -- all six commands, each in json, csv
and table format, at fixed seeds and small sizes, and every simulating
command on one and on two threads -- through
``brokenrecords.cli.main`` and writes each report to ``OUT/<name>.<format>``
with its ``meta.run`` block removed, since that block holds timings and
timestamps.  Everything else is deterministic, so two trees that compute
the same numbers give identical directories:

    python tools/golden.py /tmp/golden-old --src /path/to/old/checkout/src
    python tools/golden.py /tmp/golden-new
    diff -r /tmp/golden-old /tmp/golden-new

``--src`` picks the source tree to import (default: the one beside this
script).  The whole list runs in a few seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

INVOCATIONS: dict[str, list[str]] = {
    "exact-n6": ["exact", "--n", "6", "--kmax", "4"],
    "exact-n2000": ["exact", "--n", "2000", "--kmax", "8"],
    # Every k up to n, where the closed form for the masses cancels most.
    "exact-n40-full": ["exact", "--n", "40", "--kmax", "40"],
    # Both sides of the exact pass's ceiling at the default kmax 8
    # (n = 33,333): every cell, then only the k <= 1 closed forms.
    "exact-n5000": ["exact", "--n", "5000", "--kmax", "8"],
    "exact-n40000": ["exact", "--n", "40000", "--kmax", "8"],
    # The row's product tree at degree 2: 999 factors split into spans of
    # 62 and 63, none a power of two.
    "exact-n1000-kmax3": ["exact", "--n", "1000", "--kmax", "3"],
    "oracle-n5-b": ["oracle", "--n", "5"],
    "oracle-n6-r": ["oracle", "--n", "6", "--view", "r"],
    # 90 passes over the 8! table, one per placement of the values 9 and 8.
    "oracle-n9-r": ["oracle", "--n", "9", "--view", "r"],
    "oracle-n8-joint": ["oracle", "--n", "8", "--view", "joint"],
    "simulate-n50": ["simulate", "--n", "50", "--trials", "20000", "--seed", "7"],
    # Two values per row, the narrowest window.
    "simulate-n1": ["simulate", "--n", "1", "--trials", "50000", "--seed", "1"],
    # Several chunks at any chunk budget from 2**19 to 2**23 values, so a
    # diff also covers the merge of chunk counts.
    "simulate-n500": ["simulate", "--n", "500", "--trials", "40000", "--seed", "9"],
    "simulate-n12-workers2": [
        "simulate", "--n", "12", "--trials", "30000", "--seed", "8", "--workers", "2",
    ],
    # Record counts take the record jumps of n + 1 values per trial.
    "simulate-n8-r": [
        "simulate", "--n", "8", "--trials", "20000", "--seed", "808", "--stat", "r",
        "--workers", "1",
    ],
    "simulate-n30-r": [
        "simulate", "--n", "30", "--trials", "5000", "--seed", "3", "--stat", "r",
    ],
    # Longer jump runs: about H_301 = 6.3 draws per trial.
    "simulate-n300-r": [
        "simulate", "--n", "300", "--trials", "5000", "--seed", "3", "--stat", "r",
        "--workers", "1",
    ],
    # Three blocks of record jumps on one thread, the last one partial.
    "simulate-n1000-r": [
        "simulate", "--stat", "r", "--n", "1000", "--trials", "150000", "--seed", "11",
        "--workers", "1",
    ],
    # Past the exact mean's ceiling (n = 10**5): its cells are empty.
    "simulate-n100001-r": [
        "simulate", "--stat", "r", "--n", "100001", "--trials", "20", "--seed", "3",
        "--workers", "1",
    ],
    # Past the window sampler's row cap, which the record jumps have not.
    "simulate-n1000000000-r": [
        "simulate", "--stat", "r", "--n", "1000000000", "--trials", "20000", "--seed", "3",
        "--workers", "1",
    ],
    # A kmax past n: the histogram stops at k = n, and kmax stays in meta.
    "simulate-n5-kmax40": [
        "simulate", "--n", "5", "--kmax", "40", "--trials", "5000", "--seed", "17",
        "--workers", "1",
    ],
    "simulate-n40-checkpoints": [
        "simulate", "--n", "40", "--trials", "5000", "--seed", "3",
        "--checkpoints", "auto",
    ],
    "converge-sweep": ["converge", "--n-list", "2,4,8,64,512,2000", "--kmax", "8"],
    "converge-sampled": [
        "converge", "--n-list", "3,100,3000", "--kmax", "3",
        "--trials", "20000", "--seed", "5",
    ],
    # The suffix sampler past the window sampler's row cap.
    "converge-sampled-n1000000000": [
        "converge", "--n-list", "20000,1000000000", "--kmax", "2",
        "--trials", "20000", "--seed", "1",
    ],
    "gof-n8": ["gof", "--n", "8", "--trials", "50000", "--seed", "404"],
    "gof-n1": ["gof", "--n", "1", "--trials", "10000", "--seed", "31"],
    # Three blocks of the suffix sampler, the last one partial.
    "gof-n500": ["gof", "--n", "500", "--trials", "150000", "--seed", "500"],
    # Past the window sampler's row cap, which the suffix sampler has not.
    "gof-n1000000000": ["gof", "--n", "1000000000", "--trials", "20000", "--seed", "9"],
    "audit-n30": ["audit", "--n", "30", "--trials", "200", "--seed", "55"],
    # Short rows, whose break counts the walk reads in X_{n-1} and one
    # gathered block at most: the replay checks them against the stack.
    "audit-n8": ["audit", "--n", "8", "--trials", "2000", "--seed", "21"],
    # The replay checks each trial's stack against the definitional scan
    # and its final break count against the walk, in four ranges of at
    # most 630 rows, which go to forked worker processes on more than one CPU.
    "audit-n100": ["audit", "--n", "100", "--trials", "2000", "--seed", "34"],
    # Short rows at three horizons: prefix views of each chunk are counted.
    "simulate-n11-checkpoints": [
        "simulate", "--n", "11", "--trials", "20000", "--seed", "13",
        "--checkpoints", "auto",
    ],
    # Prefix views about the walk's first block edge: rows of 2 values
    # hold X_{n-1} alone; of 3, one column of the first block; of 9, 10
    # and 11, they end one column short of its edge, at it, and one past.
    "simulate-n10-checkpoints": [
        "simulate", "--n", "10", "--trials", "20000", "--seed", "10",
        "--checkpoints", "1,2,8,9,10", "--workers", "1",
    ],
}
# Every caller of the chunk scheduler once more on two threads; each
# output must equal its one-thread twin above, which is pinned to one
# thread, since the default is every usable CPU.
for name in (
    "simulate-n500",
    "simulate-n30-r",
    "simulate-n40-checkpoints",
    "converge-sampled",
    "gof-n8",
    "gof-n500",
):
    INVOCATIONS[f"{name}-workers2"] = [*INVOCATIONS[name], "--workers", "2"]
    INVOCATIONS[name] += ["--workers", "1"]
FORMATS = ("json", "csv", "table")


def without_run_block(text: str, fmt: str) -> str:
    """The report with its ``meta.run`` block dropped."""
    if fmt == "json":
        report = json.loads(text)
        report.get("meta", {}).pop("run", None)
        return json.dumps(report, indent=2) + "\n"
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# run.")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write the outputs into")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="source tree that holds the brokenrecords package",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from brokenrecords.cli import main as cli_main

    args.out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, command in INVOCATIONS.items():
        for fmt in FORMATS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main([*command, "--format", fmt])
            if code != 0:
                failed += 1
                sys.stderr.write(f"{name}.{fmt}: exit {code}: {stderr.getvalue()}")
                continue
            text = without_run_block(stdout.getvalue(), fmt)
            (args.out / f"{name}.{fmt}").write_text(text, encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
