"""Command-line interface for the record-break analysis tools.

Subcommands map one-to-one onto the report builders: ``exact`` for the
exact law, ``oracle`` for exhaustive enumeration, ``simulate`` for
seeded Monte Carlo, ``converge`` for the deviation sweep, ``gof`` for
distribution fit, and ``audit`` for the step-by-step invariant replay.

``--format``, ``--view`` and ``--stat`` are argparse choices, which
``--help`` lists; ``oracle_table`` and ``simulate_table`` check ``view``
and ``stat`` again for callers that skip the parser.  Every other
argument's domain is checked once, by the module that owns it, and the
parser checks none of them.  Exit codes: 0 success, 2 usage (a
``UsageError``), 3 capacity cap, 4 output I/O, 5 invariant or mid-run
failure.  Any other exception is a fault of the program and
surfaces as a traceback.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import TextIO

from . import reports
from .errors import CapacityError, InvariantError, PartialResultError, UsageError
from .montecarlo import SimConfig, simulate_trajectory_audit, usable_cpus
from .oracle import MAX_N

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_INVARIANT = 5

_EMITTERS = {
    "json": reports.emit_json,
    "csv": reports.emit_csv,
    "table": reports.emit_table,
}


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=sorted(_EMITTERS),
        default="table",
        help="output format (default table)",
    )
    p.add_argument("--out", help="write the report here instead of stdout")


def _add_trial_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, required=True, help="number of trajectories")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed of the run (omitted: one is generated and printed)",
    )


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    _add_trial_flags(p)
    p.add_argument(
        "--kmax", type=int, default=12, help="pool break counts above this (default 12)"
    )
    _add_workers_flag(p)


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=usable_cpus(),
        help="chunk scheduler threads (default %(default)s: every usable CPU)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brokenrecords",
        description="Exact and empirical distribution of records broken per step.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact masses and survivor tails")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    p.add_argument("--kmax", type=int, default=None, help="largest break count tabulated")
    _add_output_flags(p)

    p = sub.add_parser("oracle", help="exact law by exhaustive enumeration")
    p.add_argument("--n", type=int, required=True, help=f"number of steps (at most {MAX_N})")
    p.add_argument(
        "--view",
        choices=["b", "r", "joint"],
        default="b",
        help="break-count pmf, record-count pmf, or the joint law",
    )
    _add_output_flags(p)

    p = sub.add_parser("simulate", help="seeded Monte Carlo frequency table")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    _add_sim_flags(p)
    p.add_argument(
        "--stat",
        choices=["b", "r"],
        default="b",
        help="tabulate break counts or record counts",
    )
    p.add_argument(
        "--checkpoints",
        default=None,
        help="also histogram break counts at these horizons: "
        "comma-separated steps, or 'auto' for quarter/half/full",
    )
    _add_output_flags(p)

    p = sub.add_parser("converge", help="deviation-from-limit sweep over n")
    p.add_argument(
        "--n-list",
        required=True,
        help="comma-separated n values, e.g. 2,4,8,100",
    )
    p.add_argument("--kmax", type=int, default=6, help="largest break count tabulated")
    p.add_argument(
        "--trials",
        type=int,
        default=0,
        help="simulation size for n beyond the enumeration cap (0 skips simulation)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed of the sweep (omitted: one is generated and printed)",
    )
    _add_workers_flag(p)
    _add_output_flags(p)

    p = sub.add_parser("gof", help="fit of simulated break counts to the references")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    _add_sim_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("audit", help="replay trajectories and verify every invariant")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    _add_trial_flags(p)
    _add_output_flags(p)

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    """Use the given seed, or draw one and announce it for reproducibility."""
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(8), "big")
    sys.stderr.write(f"generated seed: {seed}\n")
    return seed


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated flag value; blank items are skipped."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} must be comma-separated integers: {exc}") from exc


def cmd_exact(args: argparse.Namespace) -> dict:
    return reports.exact_table(args.n, args.kmax)


def cmd_oracle(args: argparse.Namespace) -> dict:
    return reports.oracle_table(args.n, view=args.view)


def _sim_config(args: argparse.Namespace) -> SimConfig:
    """The run that ``simulate`` and ``gof`` share: their common flags."""
    return SimConfig(
        n=args.n,
        trials=args.trials,
        seed=_resolve_seed(args),
        kmax=args.kmax,
        workers=args.workers,
    )


def cmd_simulate(args: argparse.Namespace) -> dict:
    config = _sim_config(args)
    if args.checkpoints is not None:
        if args.stat != "b":
            raise UsageError("--checkpoints applies only to --stat b")
        ts = None
        if args.checkpoints != "auto":
            ts = tuple(_int_list(args.checkpoints, "--checkpoints"))
        return reports.checkpoint_table(config, ts)
    return reports.simulate_table(config, stat=args.stat)


def cmd_converge(args: argparse.Namespace) -> dict:
    n_list = _int_list(args.n_list, "--n-list")
    seed = _resolve_seed(args) if args.trials > 0 else args.seed or 0
    return reports.converge_table(n_list, args.kmax, args.trials, seed, workers=args.workers)


def cmd_gof(args: argparse.Namespace) -> dict:
    return reports.gof_report(_sim_config(args))


def cmd_audit(args: argparse.Namespace) -> dict:
    config = SimConfig(n=args.n, trials=args.trials, seed=_resolve_seed(args))
    report = simulate_trajectory_audit(config)
    meta = {
        "command": "audit",
        "n": report.n,
        "trials": report.trials,
        "seed": config.seed,
        "run": report.run,
    }
    rows = [
        {
            "n": report.n,
            "trials": report.trials,
            "steps_checked": report.steps_checked,
            "tie_redraws": report.tie_redraws,
            "result": "pass",
        }
    ]
    return {"meta": meta, "rows": rows}


_HANDLERS = {
    "exact": cmd_exact,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "gof": cmd_gof,
    "audit": cmd_audit,
}


def _emit(report: dict, args: argparse.Namespace, stdout: TextIO) -> None:
    emitter = _EMITTERS[args.format]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            emitter(report, fh)
        stdout.write(f"wrote {len(report.get('rows', []))} rows to {args.out}\n")
    else:
        emitter(report, stdout)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    stdout = sys.stdout
    stderr = sys.stderr
    try:
        report = _HANDLERS[args.command](args)
        _emit(report, args, stdout)
    except CapacityError as exc:
        stderr.write(f"capacity: {exc}\n")
        return EXIT_CAPACITY
    except PartialResultError as exc:
        stderr.write(f"incomplete: {exc} ({exc.completed} trials finished)\n")
        return EXIT_INVARIANT
    except InvariantError as exc:
        where = " ".join(
            f"{name}={value}"
            for name in ("seed", "trial", "step")
            if (value := getattr(exc, name)) is not None
        )
        stderr.write(f"invariant: {exc}" + (f" ({where})" if where else "") + "\n")
        return EXIT_INVARIANT
    except UsageError as exc:
        stderr.write(f"usage: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        stderr.write(f"io: {exc}\n")
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
