"""End-to-end tests of the command-line interface.

Each subcommand runs through ``main`` exactly as a shell invocation
would.  Simulation-backed checks whose documented sizes would make them
slow in CI run at reduced trial counts whose frozen-seed margins were
confirmed well inside the tolerances.
"""

import hashlib
import json
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
from brokenrecords.reports import _unlimited_int_digits

F = Fraction


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


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
        # n = 3000 is past --tail-max-n, so no exact pass sees the kmax.
        assert main(["exact", "--n", "3000", "--kmax", "-1"]) == 2
        assert capsys.readouterr().err == "usage: kmax must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [["exact", "--n", "5"], ["converge", "--n-list", "5"]],
        ids=["exact", "converge"],
    )
    def test_negative_tail_max_n_is_usage_error(self, argv, capsys):
        assert main([*argv, "--tail-max-n", "-1"]) == 2
        assert "tail_max_n must be nonnegative" in capsys.readouterr().err

    def test_exact_route_ceiling_exits_3(self, capsys):
        # Refused from the sizes alone, before any pass or simulation, so
        # this allocates nothing.
        huge = str(10**9)
        assert main(["exact", "--n", huge, "--tail-max-n", huge]) == 3
        assert "capacity" in capsys.readouterr().err
        code = main([
            "converge", "--n-list", huge, "--tail-max-n", huge,
            "--trials", "10", "--seed", "1",
        ])
        assert code == 3
        assert "capacity" in capsys.readouterr().err


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

    def test_record_stat_exact_mean_refused_before_any_draw(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a draw started before the exact-mean refusal")

        monkeypatch.setattr(brokenrecords.exact, "EXACT_MAX_WORK", 99)
        monkeypatch.setattr(mc, "_raw_rows", refuse)
        code = main([
            "simulate", "--n", "10", "--trials", "5", "--seed", "1", "--stat", "r",
        ])
        assert code == 3
        assert "exact mean record count for n=10" in capsys.readouterr().err

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
        # Stated at 10^6 trials; 4x10^4 keeps the margin at seed 71 while
        # staying inside a test-suite time budget.
        code, rep = run_json(
            capsys,
            "converge", "--n-list", "10000", "--kmax", "2",
            "--trials", "40000", "--seed", "71",
        )
        assert code == 0
        row = next(r for r in rep["rows"] if r["k"] == 2)
        assert row["empirical"] is not None
        assert row["abs_dev"] < 0.005

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
        monkeypatch.setattr(cli.reports, "simulate_b", calls.append)
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
        monkeypatch.setattr(cli.reports, "simulate_b", calls.append)
        assert main(["converge", "--n-list", "4,100", *flags]) == 2
        assert capsys.readouterr().err.startswith("usage: ")
        assert calls == []

    def test_exact_ceiling_refused_before_any_sampling(self, monkeypatch, capsys):
        # n = 40000 at kmax 6 is over the exact pass's work cap; the n before
        # it must be neither enumerated nor sampled first.
        calls = []
        monkeypatch.setattr(cli.reports, "simulate_b", calls.append)
        monkeypatch.setattr(cli.reports, "oracle_joint", calls.append)
        argv = [
            "converge", "--n-list", "8,3000,40000", "--kmax", "6",
            "--trials", "200000", "--seed", "1", "--tail-max-n", "50000",
        ]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("capacity:")
        assert calls == []


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
        # Stated at 10^6 trials; 5x10^5 at seed 60 gives TV 0.0007, well
        # under the 0.002 band.
        code, rep = run_json(
            capsys, "gof", "--n", "2000", "--trials", "500000", "--seed", "60"
        )
        assert code == 0
        row = next(
            r
            for r in rep["rows"]
            if r["reference"] == "geometric-limit" and r["statistic"] == "tv"
        )
        assert row["value"] < 0.002


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
    def _loaded_after_cli_import(self, *prefixes):
        """Modules under ``prefixes`` that ``import brokenrecords.cli`` loads."""
        src = os.path.dirname(os.path.dirname(brokenrecords.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys, brokenrecords.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        return out.strip()

    def test_cli_import_leaves_scipy_out(self):
        assert self._loaded_after_cli_import("scipy") == "[]"

    def test_cli_import_leaves_multiprocessing_out(self):
        # Only an audit that forks workers imports these.
        assert (
            self._loaded_after_cli_import("multiprocessing", "concurrent.futures.process")
            == "[]"
        )


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
        "argv",
        [
            ["simulate", "--workers", "2"],
            ["simulate", "--checkpoints", "auto"],
            ["simulate", "--stat", "r"],
            ["gof", "--workers", "2"],
            ["audit"],
        ],
        ids=["simulate", "checkpoints", "records", "gof", "audit"],
    )
    def test_oversized_row_exits_3_before_any_work(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("work started for an oversized row")

        monkeypatch.setattr(mc, "_raw_rows", refuse)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", refuse)
        threads = threading.active_count()
        code = main([*argv, "--n", "1000000000", "--trials", "1", "--seed", "1"])
        assert code == 3
        assert "cap of the window sampler" in capsys.readouterr().err
        assert threading.active_count() == threads


class TestGoldenBytes:
    """Reports pinned byte for byte by their sha256.

    The digests were taken from the row-major enumeration kernel that the
    column-major one replaced (the oracle's again once its ``max_n`` meta
    line was dropped, the only change to its bytes); a kernel or
    exact-route change that moves one digit of these reports fails here.  The argv of the first is the
    converge-sweep benchmark workload.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["converge", "--n-list", "2,4,8,64,512,2000", "--kmax", "8"],
                "f98e31fae9436cce8dd94bb7058fa493b6845c17ade4699a1c2087ab73063031",
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
