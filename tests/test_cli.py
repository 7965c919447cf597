"""End-to-end tests of the command-line interface.

Each subcommand runs through ``main`` exactly as a shell invocation
would.  Simulation-backed checks whose documented sizes would make them
slow in CI run at reduced trial counts whose frozen-seed margins were
confirmed well inside the tolerances.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import brokenrecords
import brokenrecords.cli as cli
import brokenrecords.montecarlo as mc
import brokenrecords.records as records
from brokenrecords.cli import main
from brokenrecords.errors import InvariantError, PartialResultError
from brokenrecords.reports import _unlimited_int_digits, chi_square_fit

F = Fraction


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def _assert_near_the_law(rows, trials):
    """Every sampled cell lies within 5 sigma of its exact mass, or of the
    limit where the exact cell is empty and the limit is within 1e-12."""
    for row in rows:
        if row["exact_full"] is None:
            assert row["remainder_bound"] < 1e-12, row
            p = row["limit"]
        else:
            with _unlimited_int_digits():
                p = float(F(row["exact_full"]))
        assert abs(row["empirical"] - p) < 5 * (p * (1 - p) / trials) ** 0.5, row


def _record_law(n, top):
    """P[R_n = r] for r = 1..top in float64 at large n: e_{r-1}(1, 1/2, ...,
    1/n) / (n + 1), the e's by Newton's identities from the power sums
    sum_{i <= n} i**-k, whose tails past 999 and past n are summed by
    Euler-Maclaurin."""
    m = n + 1

    def tail(start, k):  # sum_{i >= start} i**-k
        return start ** (1 - k) / (k - 1) + start**-k / 2 + k * start ** (-k - 1) / 12

    power = [0.0, math.log(n) + 0.5772156649015329 + 1 / (2 * n) - 1 / (12 * n * n)]
    for k in range(2, top):
        power.append(math.fsum(i**-k for i in range(1, 1000)) + tail(1000, k) - tail(m, k))
    e = [1.0]
    for k in range(1, top):
        e.append(math.fsum((-1) ** (i - 1) * e[k - i] * power[i] for i in range(1, k + 1)) / k)
    return [x / m for x in e]


class TestExactCommand:
    def test_n2_values(self, capsys):
        code, rep = run_json(capsys, "exact", "--n", "2", "--kmax", "2")
        assert code == 0
        cells = {
            v
            for row in rep["rows"]
            for v in (row["exact_full"], row["exact_tail"])
            if v is not None
        }
        assert {"1/2", "1/3", "1/6"} <= cells

    def test_n3_single_break_mass(self, capsys):
        code, rep = run_json(capsys, "exact", "--n", "3", "--kmax", "3")
        assert code == 0
        row = next(r for r in rep["rows"] if r["k"] == 1)
        assert row["exact_full"] == "7/24"

    def test_n1_coin_flip(self, capsys):
        code, rep = run_json(capsys, "exact", "--n", "1", "--kmax", "1")
        assert code == 0
        row = next(r for r in rep["rows"] if r["k"] == 1)
        assert row["exact_full"] == "1/2"

    def test_bad_n_is_usage_error(self, capsys):
        assert main(["exact", "--n", "0"]) == 2

    def test_negative_kmax_past_the_exact_pass_is_usage_error(self, capsys):
        # n = 10**9 is past the exact ceiling, so no pass runs; exact_pmf_b
        # checks the kmax before its ceiling all the same.
        assert main(["exact", "--n", str(10**9), "--kmax", "-1"]) == 2
        assert capsys.readouterr().err == "usage: kmax must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [["exact", "--n", "5"], ["converge", "--n-list", "5"]],
        ids=["exact", "converge"],
    )
    def test_tail_max_n_is_an_unknown_argument(self, argv, capsys):
        # The exact pass's own ceiling is the only one, and no flag moves it.
        assert main([*argv, "--tail-max-n", "10"]) == 2
        assert "unrecognized arguments: --tail-max-n 10" in capsys.readouterr().err

    def test_past_the_exact_ceiling_exits_0(self, capsys):
        # The pass refuses n = 10**9 from the sizes alone, before any
        # arithmetic, so the k <= 1 closed forms fill the table.
        n = 10**9
        closed = ["1/2", str(F(1, 4) + F(1, 2 * n * (n + 1)))]
        for argv, cells in (
            (["exact", "--n", str(n)], closed + [None] * 7),
            (["exact", "--n", str(n), "--kmax", "1"], closed),
            (["converge", "--n-list", str(n), "--kmax", "2"], closed + [None]),
        ):
            code, rep = run_json(capsys, *argv)
            assert code == 0
            assert [r["exact_full"] for r in rep["rows"]] == cells
            assert all(r["exact_tail"] is None for r in rep["rows"])


class TestOracleCommand:
    def test_break_pmf_n3(self, capsys):
        code, rep = run_json(capsys, "oracle", "--n", "3")
        assert code == 0
        masses = {r["k"]: r["oracle_exact"] for r in rep["rows"]}
        assert masses == {0: "1/2", 1: "7/24", 2: "1/6", 3: "1/24"}

    def test_record_pmf_n2(self, capsys):
        code, rep = run_json(capsys, "oracle", "--n", "2", "--view", "r")
        assert code == 0
        masses = {r["r"]: r["mass"] for r in rep["rows"]}
        assert masses == {1: "1/3", 2: "1/2", 3: "1/6"}

    def test_over_cap_is_capacity_exit(self, capsys):
        assert main(["oracle", "--n", "11"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity: ")
        assert "over the cap of n=10" in err

    def test_cap_n_enumerates(self, capsys):
        # 11! orderings: the slowest enumeration the cap allows.
        code, rep = run_json(capsys, "oracle", "--n", "10")
        assert code == 0
        assert sum(F(r["oracle_exact"]) for r in rep["rows"]) == 1
        assert "max_n" not in rep["meta"]

    def test_max_n_flag_is_gone(self, capsys):
        assert main(["oracle", "--n", "3", "--max-n", "9"]) == 2
        assert "--max-n" in capsys.readouterr().err

    def test_bad_view_is_usage_exit(self):
        assert main(["oracle", "--n", "3", "--view", "z"]) == 2


class TestSimulateCommand:
    @pytest.mark.parametrize("argv", [["simulate", "--n"], ["gof", "--n"], ["converge", "--n-list"]])
    def test_workers_default_to_every_usable_cpu(self, argv):
        args = cli.build_parser().parse_args([*argv, "5", "--trials", "5"])
        assert args.workers == mc.usable_cpus()

    def test_default_run_reports_every_usable_cpu(self, capsys):
        code, rep = run_json(capsys, "simulate", "--n", "5", "--trials", "10", "--seed", "1")
        assert code == 0
        assert rep["meta"]["run"]["workers"] == mc.usable_cpus()

    def test_matches_oracle_small_n(self, capsys):
        from brokenrecords import oracle_pmf_b

        code, rep = run_json(
            capsys,
            "simulate", "--n", "4", "--trials", "100000", "--seed", "88",
        )
        assert code == 0
        exact = oracle_pmf_b(4)
        for row in rep["rows"]:
            assert abs(row["empirical"] - float(exact.prob(row["k"]))) < 0.003

    def test_repeat_runs_identical_outside_run_block(self, tmp_path, capsys):
        args = [
            "simulate", "--n", "12", "--trials", "3000", "--seed", "5",
            "--format", "json",
        ]
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(fa)]) == 0
        assert main([*args, "--out", str(fb)]) == 0
        capsys.readouterr()
        ra = json.loads(fa.read_text())
        rb = json.loads(fb.read_text())
        ra["meta"].pop("run")
        rb["meta"].pop("run")
        assert ra == rb

    def test_out_file_and_confirmation_line(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = main([
            "simulate", "--n", "3", "--trials", "100", "--seed", "1",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        assert re.match(r"wrote \d+ rows to ", capsys.readouterr().out)
        assert out.read_text().startswith("#")

    def test_generated_seed_is_printed(self, capsys):
        code = main(["simulate", "--n", "1", "--trials", "100"])
        assert code == 0
        err = capsys.readouterr().err
        assert re.search(r"generated seed: \d+", err)

    def test_checkpoints_flag(self, capsys):
        code, rep = run_json(
            capsys,
            "simulate", "--n", "40", "--trials", "500", "--seed", "3",
            "--checkpoints", "10,40",
        )
        assert code == 0
        assert {r["n"] for r in rep["rows"]} == {10, 40}

    def test_checkpoints_auto(self, capsys):
        code, rep = run_json(
            capsys,
            "simulate", "--n", "80", "--trials", "200", "--seed", "3",
            "--checkpoints", "auto",
        )
        assert code == 0
        assert {r["n"] for r in rep["rows"]} == {20, 40, 80}

    def test_checkpoints_require_break_stat(self, capsys):
        code = main([
            "simulate", "--n", "10", "--trials", "10", "--seed", "0",
            "--stat", "r", "--checkpoints", "auto",
        ])
        assert code == 2

    def test_record_stat(self, capsys):
        code, rep = run_json(
            capsys,
            "simulate", "--n", "3", "--trials", "20000", "--seed", "21",
            "--stat", "r",
        )
        assert code == 0
        assert rep["meta"]["exact_mean"] == "25/12"
        assert abs(rep["meta"]["sample_mean"] - 25 / 12) < 0.02

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_record_stat_mean_past_int_digit_cap(self, fmt, capsys):
        # H_10001 has a 4,346-digit denominator, past Python's default
        # 4,300-digit cap on int/str conversion.
        code = main([
            "simulate", "--n", "10000", "--trials", "20", "--seed", "1",
            "--stat", "r", "--format", fmt,
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        if fmt == "json":
            printed = json.loads(captured.out)["meta"]["exact_mean"]
        else:
            line = next(
                l for l in captured.out.splitlines() if l.startswith("# exact_mean=")
            )
            printed = line.split("=", 1)[1]
        assert len(printed) > 4300
        with _unlimited_int_digits():
            assert Fraction(printed) == brokenrecords.expected_record_count(10000)

    def test_record_stat_samples_past_the_exact_mean_ceiling(self, monkeypatch, capsys):
        argv = ["simulate", "--n", "10", "--trials", "5", "--seed", "1", "--stat", "r"]
        code, full = run_json(capsys, *argv)
        assert code == 0
        # n * n = 100 is over this ceiling: the mean cells are empty, and the
        # draw is the unpatched one.
        monkeypatch.setattr(brokenrecords.exact, "EXACT_MAX_WORK", 99)
        code, capped = run_json(capsys, *argv)
        assert code == 0
        assert (capped["meta"]["exact_mean"], capped["meta"]["abs_mean_dev"]) == (None, None)
        assert capped["rows"] == full["rows"]
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {"# exact_mean=", "# abs_mean_dev="} <= set(lines)

    def test_missing_trials_is_usage_exit(self):
        assert main(["simulate", "--n", "3"]) == 2

    def test_unwritable_out_is_io_exit(self, capsys):
        code = main([
            "simulate", "--n", "1", "--trials", "10", "--seed", "0",
            "--out", "/nonexistent-dir/x.json",
        ])
        assert code == 4
        assert "io:" in capsys.readouterr().err


class TestConvergeCommand:
    def test_oracle_backed_deviations(self, capsys):
        code, rep = run_json(
            capsys,
            "converge", "--n-list", "2,3,4,5,6,7,8", "--kmax", "2",
        )
        assert code == 0
        for row in rep["rows"]:
            if row["k"] == 0:
                assert row["abs_dev"] == 0.0
            if row["k"] == 1:
                n = row["n"]
                assert row["abs_dev"] == float(F(1, 2 * n * (n + 1)))

    def test_empirical_tail_deviation_large_n(self, capsys):
        # abs_dev is read off exact_full wherever it is present, so the
        # sample is held to the exact law directly.
        code, rep = run_json(
            capsys,
            "converge", "--n-list", "10000", "--kmax", "2",
            "--trials", "1000000", "--seed", "71",
        )
        assert code == 0
        _assert_near_the_law(rep["rows"], 10**6)

    def test_bad_n_list_is_usage_exit(self, capsys):
        assert main(["converge", "--n-list", "2,x"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_negative_trials_is_usage_exit(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.reports, "oracle_joint", calls.append)
        assert main(["converge", "--n-list", "4", "--trials", "-5"]) == 2
        assert capsys.readouterr().err == "usage: trials must be nonnegative, got -5\n"
        assert calls == []

    def test_bad_n_refused_before_any_sampling(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.reports, "simulate_b_suffix", calls.append)
        argv = ["converge", "--n-list", "3000,0", "--trials", "100000", "--seed", "1"]
        assert main(argv) == 2
        assert "every n must be at least 1" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--seed", "-1"],
            ["--trials", "10", "--seed", "1", "--workers", "0"],
        ],
        ids=["workers-no-trials", "seed-no-trials", "workers-with-trials"],
    )
    def test_seed_and_workers_refused_before_any_work(self, flags, monkeypatch, capsys):
        # With no trials nothing is sampled, yet the sampler's rules still
        # hold; with trials, n = 4 must not be enumerated first.
        calls = []
        monkeypatch.setattr(cli.reports, "exact_pmf_b", calls.append)
        monkeypatch.setattr(cli.reports, "oracle_joint", calls.append)
        monkeypatch.setattr(cli.reports, "simulate_b_suffix", calls.append)
        assert main(["converge", "--n-list", "4,100", *flags]) == 2
        assert capsys.readouterr().err.startswith("usage: ")
        assert calls == []

    def test_past_the_exact_ceiling_the_sweep_still_samples(self, monkeypatch, capsys):
        # At kmax 3, n = 50 sits on this ceiling and n = 51 is past it.
        monkeypatch.setattr(brokenrecords.exact, "EXACT_MAX_WORK", 4 * 50 * 50)
        code, rep = run_json(
            capsys,
            "converge", "--n-list", "8,50,51", "--kmax", "3",
            "--trials", "2000", "--seed", "1",
        )
        assert code == 0
        assert rep["meta"]["simulated_n"] == [50, 51]
        by = {(r["n"], r["k"]): r for r in rep["rows"]}
        assert all(by[(50, k)]["exact_full"] is not None for k in range(4))
        assert [by[(51, k)]["exact_full"] is None for k in range(4)] == [False, False, True, True]
        # Past the ceiling the deviation falls back to the sample.
        row = by[(51, 2)]
        assert row["abs_dev"] == abs(row["empirical"] - 0.125)


class TestGofCommand:
    def test_n1_tv_is_quarter(self, capsys):
        # With only two support points the empirical noise cancels out of
        # the pooled total variation, leaving exactly 1/4.
        code, rep = run_json(
            capsys, "gof", "--n", "1", "--trials", "100000", "--seed", "31"
        )
        assert code == 0
        row = next(
            r
            for r in rep["rows"]
            if r["reference"] == "geometric-limit" and r["statistic"] == "tv"
        )
        assert abs(row["value"] - 0.25) < 1e-9

    def test_n8_against_enumeration(self, capsys):
        code, rep = run_json(
            capsys, "gof", "--n", "8", "--trials", "1000000", "--seed", "404"
        )
        assert code == 0
        row = next(
            r
            for r in rep["rows"]
            if r["reference"] == "enumeration" and r["statistic"] == "chi2"
        )
        assert 0.001 < row["p_value"] < 0.999

    def test_large_n_tv_near_limit(self, capsys):
        # At seed 60 the TV is 0.0016.
        code, rep = run_json(
            capsys, "gof", "--n", "2000", "--trials", "1000000", "--seed", "60"
        )
        assert code == 0
        row = next(
            r
            for r in rep["rows"]
            if r["reference"] == "geometric-limit" and r["statistic"] == "tv"
        )
        assert row["value"] < 0.002


    def test_kmax_past_the_float_limit_is_refused_before_any_draw(self, monkeypatch, capsys):
        # 2**-1075 is 0.0 as a float64, so kmax 1074 adds only bins that
        # print as zero; kmax 1073, whose last limit mass is 2**-1074, runs.
        argv = ["gof", "--n", "5", "--trials", "1000", "--seed", "1", "--workers", "1"]
        calls = []
        simulate = cli.reports.simulate_b_suffix
        monkeypatch.setattr(
            cli.reports, "simulate_b_suffix", lambda cfg: calls.append(cfg) or simulate(cfg)
        )
        assert main([*argv, "--kmax", "1074"]) == 3
        assert capsys.readouterr().err.startswith("capacity: gof kmax=1074 is over 1073")
        assert calls == []
        code, rep = run_json(capsys, *argv, "--kmax", "1073")
        assert code == 0
        assert rep["meta"]["kmax"] == 1073
        assert len(calls) == 1


class TestAuditCommand:
    def test_passes(self, capsys):
        code, rep = run_json(
            capsys, "audit", "--n", "30", "--trials", "50", "--seed", "5"
        )
        assert code == 0
        assert rep["rows"][0]["result"] == "pass"
        assert rep["rows"][0]["steps_checked"] == 50 * 30

    def test_repeat_runs_differ_only_in_run_block(self, capsys):
        args = ("audit", "--n", "12", "--trials", "40", "--seed", "9")
        _, ra = run_json(capsys, *args)
        _, rb = run_json(capsys, *args)
        run_a, run_b = ra["meta"].pop("run"), rb["meta"].pop("run")
        assert ra == rb
        assert set(run_a) == set(run_b) == {
            "timestamp",
            "wall_time_s",
            "workers",
            "chunks",
            "steps_per_s",
            "numpy",
            "brokenrecords",
        }
        assert run_a["chunks"] == 1

    def test_sampler_flags_are_usage_errors(self, capsys):
        # The replay pools no counts, and its worker processes follow the
        # usable CPUs (``taskset -c 0`` gives a serial run).
        for flag, value in (("--workers", "2"), ("--kmax", "4")):
            argv = ["audit", "--n", "5", "--trials", "10", "--seed", "1", flag, value]
            assert main(argv) == 2
            assert flag in capsys.readouterr().err


class TestImportPath:
    @staticmethod
    def _python(*args, **kwargs):
        """Run ``python args`` in a fresh interpreter that imports this tree."""
        src = os.path.dirname(os.path.dirname(brokenrecords.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
        )

    def _loaded_after_cli_import(self, *prefixes):
        """Modules under ``prefixes`` that ``import brokenrecords.cli`` loads."""
        probe = (
            "import sys, brokenrecords.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
        )
        return self._python("-c", probe, check=True).stdout.strip()

    def test_cli_import_leaves_scipy_out(self):
        assert self._loaded_after_cli_import("scipy") == "[]"

    def test_cli_import_leaves_multiprocessing_out(self):
        # Only an audit that forks workers imports these.
        assert (
            self._loaded_after_cli_import("multiprocessing", "concurrent.futures.process")
            == "[]"
        )

    def test_module_entry_prints_what_main_prints(self, capsys):
        argv = ["exact", "--n", "3", "--format", "json"]
        assert main(argv) == 0
        out = self._python("-m", "brokenrecords", *argv, timeout=60)
        assert (out.returncode, out.stdout) == (0, capsys.readouterr().out)

    def test_module_entry_exits_with_main_code(self):
        out = self._python("-m", "brokenrecords", "exact", "--n", "0", timeout=60)
        assert out.returncode == 2
        assert out.stderr.startswith("usage: ")

    def test_public_surface(self):
        # The paper's literal sums are test references (tests/paper_sums.py),
        # not package API, and a record is a plain (index, value) pair.
        from brokenrecords import exact, montecarlo, oracle, records

        for name in brokenrecords.__all__:
            getattr(brokenrecords, name)
        removed = (
            "p_term",
            "joint_tail_prob",
            "joint_tail_prob_fast",
            "single_break_term",
            "telescoping_sum",
            "prob_b1_lastrecord",
            "oracle_single_break_profile",
            "record_counts",
            "RecordEntry",
        )
        for module in (brokenrecords, exact, montecarlo, oracle, records):
            assert [name for name in removed if hasattr(module, name)] == []
        members = [
            (brokenrecords.RecordStack, "entries"),
            (brokenrecords.JointPmf, "prob"),
            (brokenrecords.EmpiricalPmf, "frequencies"),
            (brokenrecords.EmpiricalPmf, "stderr"),
        ]
        assert [m for m in members if hasattr(*m)] == []


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_invariant_failure_exit(self, monkeypatch, capsys):
        def boom(config):
            raise InvariantError("planted", seed=config.seed, trial=7)

        monkeypatch.setattr(cli, "simulate_trajectory_audit", boom)
        code = main(["audit", "--n", "5", "--trials", "10", "--seed", "1"])
        assert code == 5
        err = capsys.readouterr().err
        assert "invariant" in err
        assert err.rstrip().endswith("planted (seed=1 trial=7)")

    def test_invariant_failure_prints_every_coordinate_set(self, monkeypatch, capsys):
        def boom(config):
            raise InvariantError("count", seed=config.seed, trial=3, step=5)

        monkeypatch.setattr(cli, "simulate_trajectory_audit", boom)
        assert main(["audit", "--n", "5", "--trials", "10", "--seed", "2"]) == 5
        assert capsys.readouterr().err == "invariant: count (seed=2 trial=3 step=5)\n"

        def bare(config):
            raise InvariantError("no coordinates")

        monkeypatch.setattr(cli, "simulate_trajectory_audit", bare)
        assert main(["audit", "--n", "5", "--trials", "10", "--seed", "2"]) == 5
        assert capsys.readouterr().err == "invariant: no coordinates\n"

    def test_broken_staircase_is_an_invariant_exit(self, monkeypatch, capsys):
        # A stack that evicts nothing keeps the record-count recursion and
        # the balance, so only the staircase check of the replay sees it.
        def no_evictions(stack, values):
            vals = list(values)
            start = len(stack._idx)
            stack._idx.extend(range(start, start + len(vals)))
            stack._val.extend(vals)
            return [0] * len(vals), list(range(start + 1, start + len(vals) + 1))

        monkeypatch.setattr(records.RecordStack, "extend", no_evictions)
        assert main(["audit", "--n", "5", "--trials", "3", "--seed", "1"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("invariant: final records are not a staircase: ")
        assert err.rstrip().endswith("(seed=1 trial=0)")

    def test_tie_past_the_screen_is_an_invariant_exit(self, monkeypatch, capsys):
        real = mc._break_counts

        def tied(seed, n, t0, t1, ts):
            vals, counts, redraws = real(seed, n, t0, t1, ts)
            vals = vals.copy()
            vals[2, 3] = vals[2, 0]
            return vals, counts, redraws

        monkeypatch.setattr(mc, "_break_counts", tied)
        assert main(["audit", "--n", "5", "--trials", "3", "--seed", "1"]) == 5
        assert capsys.readouterr().err == (
            "invariant: tie survived redraw in trial 2 (seed=1 trial=2)\n"
        )

    def test_type_error_is_a_fault_not_a_usage_error(self, monkeypatch, capsys):
        # argparse types every argument, so a TypeError after parsing is
        # a fault of the program and must surface as one.
        def fault(args):
            raise TypeError("planted fault")

        monkeypatch.setitem(cli._HANDLERS, "exact", fault)
        with pytest.raises(TypeError, match="planted fault"):
            main(["exact", "--n", "3"])
        assert "usage" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--n", "0"],
            ["exact", "--n", "5", "--kmax", "-1"],
            ["oracle", "--n", "0"],
            ["oracle", "--n", "-1", "--view", "r"],
            ["simulate", "--n", "0", "--trials", "5", "--seed", "1"],
            ["simulate", "--n", "5", "--trials", "0", "--seed", "1"],
            ["simulate", "--n", "5", "--trials", "5", "--seed", "-1"],
            ["simulate", "--n", "5", "--trials", "5", "--seed", "1", "--kmax", "-1"],
            ["simulate", "--n", "5", "--trials", "5", "--seed", "1", "--workers", "0"],
            ["simulate", "--n", "5", "--trials", "5", "--seed", "1", "--checkpoints", "0,5"],
            ["simulate", "--n", "5", "--trials", "5", "--seed", "1", "--checkpoints", ","],
            ["simulate", "--n", "5", "--trials", "5", "--seed", "1", "--checkpoints", "x"],
            ["converge", "--n-list", ""],
            ["converge", "--n-list", "0"],
            ["converge", "--n-list", "4", "--kmax", "-1"],
            ["gof", "--n", "0", "--trials", "5", "--seed", "1"],
            ["audit", "--n", "5", "--trials", "0", "--seed", "1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_every_domain_check_is_a_usage_exit(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: ")

    def test_value_error_is_a_fault_not_a_usage_error(self, monkeypatch, capsys):
        # Every domain check raises UsageError, so any other ValueError
        # is a fault of the program and must surface as one.
        def fault(args):
            raise ValueError("planted fault")

        monkeypatch.setitem(cli._HANDLERS, "exact", fault)
        with pytest.raises(ValueError, match="planted fault"):
            main(["exact", "--n", "3"])
        assert "usage" not in capsys.readouterr().err

    def test_partial_result_exit(self, monkeypatch, capsys):
        def boom(config, stat="b"):
            raise PartialResultError("stopped", completed=3)

        monkeypatch.setattr(cli.reports, "simulate_table", boom)
        code = main(["simulate", "--n", "5", "--trials", "10", "--seed", "1"])
        assert code == 5
        assert "3 trials finished" in capsys.readouterr().err


class TestRowCapacity:
    @pytest.mark.parametrize(
        "argv, n",
        [
            (["simulate", "--workers", "2"], 10**9),
            (["simulate", "--checkpoints", "auto"], 10**9),
            (["simulate", "--stat", "r"], 10**9),
            (["gof", "--workers", "2"], 10**9),
            (["audit"], 10**9),
            # A row the window sampler takes, whose replay is over the audit's cap.
            (["audit"], 2**23),
        ],
        ids=["simulate", "checkpoints", "records", "gof", "audit", "audit-replay"],
    )
    def test_oversized_row_exits_3_before_any_work(self, argv, n, monkeypatch, capsys):
        cap = "cap of the window sampler" if n > 2**27 else "cap of the audit replay"
        n = str(n)
        if argv[0] == "gof":
            # gof samples by suffix length and owns no window, so it has no
            # row cap: n = 10**9 runs, and its sample fits the limit, within
            # about 1/n**2 of the law there (p = 0.77 at seed 1).
            code, rep = run_json(
                capsys, *argv, "--n", n, "--trials", "200000", "--seed", "1"
            )
            assert code == 0
            (fit,) = [r for r in rep["rows"] if r["statistic"] == "chi2"]
            assert fit["reference"] == "geometric-limit"
            assert fit["p_value"] > 0.01
            return
        if argv[-1] == "r":
            # Record counts take the record jumps and own no window either:
            # n = 10**9 runs and fits the law of R_n (p = 0.41 at seed 1).
            # Their cap is n + 1 < 2**53, where the float64 indices are exact.
            trials = 10**6
            code, rep = run_json(
                capsys, *argv, "--n", n, "--trials", str(trials), "--seed", "1"
            )
            assert code == 0
            observed = {row["r"]: row["count"] for row in rep["rows"]}
            probs = _record_law(10**9, 50)[:-1]
            counts = [observed.get(r, 0) for r in range(1, 50)]
            fit = chi_square_fit(
                [*counts, trials - sum(counts)], [*probs, 1 - sum(probs)], trials
            )
            assert fit[2] > 0.01
            n, cap = str(2**53 - 1), "n + 1 < 2**53"

        def refuse(*args, **kwargs):
            raise AssertionError("work started for an oversized row")

        monkeypatch.setattr(mc, "_raw_rows", refuse)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(mc.np.random, "Philox", refuse)
        monkeypatch.setattr(mc, "_forked_pool", refuse)
        threads = threading.active_count()
        code = main([*argv, "--n", n, "--trials", "1", "--seed", "1"])
        assert code == 3
        assert cap in capsys.readouterr().err
        assert threading.active_count() == threads

    def test_converge_samples_a_later_n_past_the_window_cap(self, capsys):
        # The sampled cells take the suffix sampler, which has no row cap:
        # n = 10**9 runs after n = 20,000, and both fit their laws.
        argv = ["converge", "--n-list", "20000,1000000000", "--kmax", "2"]
        code, rep = run_json(capsys, *argv, "--trials", "20000", "--seed", "1")
        assert code == 0
        assert rep["meta"]["simulated_n"] == [20000, 10**9]
        _assert_near_the_law(rep["rows"], 20000)


class TestGoldenBytes:
    """Reports pinned byte for byte by their sha256.

    The digests were taken from the row-major enumeration kernel that the
    column-major one replaced, and again once the oracle's ``max_n`` and
    the sweep's ``tail_max_n`` meta lines were dropped, the only change to
    their bytes.  A kernel or exact-route change that moves one digit of
    these reports fails here.  The argv of the first is the converge-sweep
    benchmark workload.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["converge", "--n-list", "2,4,8,64,512,2000", "--kmax", "8"],
                "42947d43fafb2bd1843388e67dc2bc17ba9252a9b7ef364e631e7e8673b1c934",
            ),
            (
                ["oracle", "--n", "8", "--view", "joint"],
                "ab17f240934e5b8c48568ce45d5bc1f8645200e52e68e0953d8921c07fcc73f8",
            ),
        ],
    )
    def test_csv_digest(self, argv, digest, capsys):
        assert main([*argv, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFormatAgreement:
    def test_json_and_csv_values_match(self, tmp_path, capsys):
        base = ["simulate", "--n", "6", "--trials", "2000", "--seed", "9"]
        ja, ca = tmp_path / "r.json", tmp_path / "r.csv"
        assert main([*base, "--format", "json", "--out", str(ja)]) == 0
        assert main([*base, "--format", "csv", "--out", str(ca)]) == 0
        capsys.readouterr()
        jrows = json.loads(ja.read_text())["rows"]
        import csv as csvmod

        lines = [
            l for l in ca.read_text().splitlines() if not l.startswith("#")
        ]
        crows = list(csvmod.DictReader(lines))
        assert len(jrows) == len(crows)
        for j, c in zip(jrows, crows):
            assert float(c["empirical"]) == j["empirical"]
            assert float(c["limit"]) == j["limit"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--n", "6", "--kmax", "4"],
            ["oracle", "--n", "4", "--view", "joint"],
            ["simulate", "--n", "5", "--trials", "1", "--seed", "1", "--stat", "r"],
            ["simulate", "--n", "5", "--trials", "1", "--seed", "1", "--kmax", "1"],
            ["simulate", "--n", "9", "--trials", "50", "--seed", "2", "--checkpoints", "auto"],
            ["converge", "--n-list", "2,3,20", "--kmax", "3", "--trials", "1", "--seed", "4"],
            ["gof", "--n", "5", "--trials", "1", "--seed", "1"],
            ["audit", "--n", "5", "--trials", "1", "--seed", "1"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
    )
    def test_json_is_strict(self, argv, capsys):
        # One trial leaves the standard errors infinite; JSON has no
        # Infinity or NaN, so they print as null.
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main([*argv, "--format", "json"]) == 0
        json.loads(capsys.readouterr().out, parse_constant=refuse)

    def test_default_table_format(self, capsys):
        assert main(["exact", "--n", "2"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0].split()[:2] == ["n", "k"]
