"""Unit tests for table assembly, fit statistics, and the three emitters."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest

from brokenrecords import SimConfig, expected_record_count, oracle_joint, oracle_pmf_b
from brokenrecords import exact, reports
import brokenrecords.montecarlo as mc
from brokenrecords.montecarlo import usable_cpus
from brokenrecords.reports import (
    _unlimited_int_digits,
    build_row,
    checkpoint_table,
    chi2_sf,
    chi_square_fit,
    converge_table,
    emit_csv,
    emit_json,
    emit_table,
    exact_table,
    gof_report,
    oracle_table,
    rational_str,
    simulate_table,
    tv_distance,
)

F = Fraction


class TestRational:
    def test_round_trip(self):
        for x in (F(1, 3), F(7, 24), F(0), F(5)):
            with _unlimited_int_digits():
                assert F(rational_str(x)) == x

    def test_format(self):
        assert rational_str(F(5, 24)) == "5/24"
        assert rational_str(F(1)) == "1/1"


class TestBuildRow:
    def test_priority_order(self):
        row = build_row(
            4,
            1,
            exact_full=F(1, 3),
            oracle_exact=F(11, 40),
            empirical=0.27,
            exact_tail=F(9, 40),
        )
        assert row["abs_dev"] == float(abs(F(11, 40) - F(1, 4)))
        no_oracle = build_row(4, 1, exact_full=F(1, 3), empirical=0.27)
        assert no_oracle["abs_dev"] == float(abs(F(1, 3) - F(1, 4)))

    def test_fallback_chain(self):
        assert build_row(9, 1, exact_full=F(1, 3))["abs_dev"] == float(F(1, 12))
        assert build_row(9, 1, empirical=0.26)["abs_dev"] == abs(0.26 - F(1, 4))
        # The survivor tail is only a part of the mass, never an estimate.
        tail_only = build_row(9, 1, exact_tail=F(1, 4))
        assert tail_only["abs_dev"] is None
        empty = build_row(9, 1)
        assert empty["abs_dev"] is None

    def test_limit_is_float(self):
        row = build_row(5, 2)
        assert isinstance(row["limit"], float)
        assert row["limit"] == 0.125

    def test_bound_column(self):
        assert build_row(5, 0)["remainder_bound"] == 0.0
        assert build_row(1, 1)["remainder_bound"] is None
        assert build_row(5, 1)["remainder_bound"] == pytest.approx(1 / 60)

    def test_row_keys(self):
        d = build_row(3, 1)
        assert list(d) == [
            "n",
            "k",
            "exact_full",
            "exact_tail",
            "oracle_exact",
            "empirical",
            "limit",
            "abs_dev",
            "remainder_bound",
        ]


class TestExactTable:
    def test_n2_values(self):
        rows = {r["k"]: r for r in exact_table(2)["rows"]}
        assert rows[0]["exact_full"] == F(1, 2)
        assert rows[1]["exact_full"] == F(1, 3)
        assert rows[1]["exact_tail"] == F(1, 6)
        assert rows[2]["exact_tail"] == 0  # survivor event impossible
        assert rows[1]["abs_dev"] == float(F(1, 12))

    def test_cells_end_at_the_exact_ceiling(self, monkeypatch):
        # At kmax 3 the pass costs n * n * 4, so n = 50 sits on this ceiling
        # and n = 51 is past it, where only the k <= 1 closed forms remain.
        monkeypatch.setattr(exact, "EXACT_MAX_WORK", 4 * 50 * 50)
        law = exact.exact_pmf_b(50, 3)
        rows = exact_table(50, kmax=3)["rows"]
        assert [r["exact_full"] for r in rows] == [law.prob(k) for k in range(4)]
        assert [r["exact_tail"] for r in rows] == [None] + [law.tail_mass(k) for k in (1, 2, 3)]
        rows = exact_table(51, kmax=3)["rows"]
        assert [r["exact_full"] for r in rows] == [F(1, 2), F(1, 4) + F(1, 5304), None, None]
        assert all(r["exact_tail"] is None for r in rows)

    def test_full_law_at_every_k(self):
        rows = exact_table(4, kmax=4)["rows"]
        pmf = oracle_pmf_b(4)
        assert [r["exact_full"] for r in rows] == [pmf.prob(k) for k in range(5)]
        assert sum(r["exact_full"] for r in rows) == 1
        lone = oracle_joint(4)
        for r in rows[1:]:
            assert r["exact_full"] - r["exact_tail"] == lone.lone_mass(r["k"])
            assert r["abs_dev"] == float(abs(r["exact_full"] - F(1, 2 ** (r["k"] + 1))))

    def test_kmax_clipped_to_n(self):
        rep = exact_table(2, kmax=9)
        assert max(r["k"] for r in rep["rows"]) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_table(0)


class TestOracleTable:
    def test_view_b(self):
        rep = oracle_table(3)
        rows = {r["k"]: r for r in rep["rows"]}
        assert rows[1]["oracle_exact"] == F(7, 24)
        assert rows[3]["oracle_exact"] == F(1, 24)

    def test_view_r(self):
        rep = oracle_table(3, view="r")
        rows = {r["r"]: r for r in rep["rows"]}
        assert rows[1]["mass"] == F(1, 4)
        assert rep["meta"]["mean"] == F(25, 12)

    def test_view_joint(self):
        rep = oracle_table(2, view="joint")
        got = {(r["k"], r["r_prev"]): r["mass"] for r in rep["rows"]}
        assert got == oracle_joint(2).mass

    def test_bad_view(self):
        with pytest.raises(ValueError):
            oracle_table(3, view="z")


# The meta keys of a window-sampler run, in order, that both simulate
# reports of B_n begin with.
SAMPLER_KEYS = [
    "mode", "n", "trials", "seed", "kmax",
    "generator", "words_per_trial", "tie_redraws", "run",
]


class TestSimulateTable:
    def test_break_counts(self):
        rep = simulate_table(SimConfig(n=4, trials=20000, seed=12))
        assert rep["meta"]["stat"] == "b"
        assert rep["meta"]["overflow"] == 0
        rows = {r["k"]: r for r in rep["rows"]}
        assert abs(rows[0]["empirical"] - 0.5) < 0.02
        assert rows[2]["exact_full"] is None

    def test_record_counts(self):
        rep = simulate_table(SimConfig(n=3, trials=50000, seed=21), stat="r")
        meta = rep["meta"]
        assert meta["exact_mean"] == F(25, 12)
        assert meta["abs_mean_dev"] < 0.02
        assert abs(meta["sample_mean"] - 25 / 12) == meta["abs_mean_dev"]
        total = sum(r["count"] for r in rep["rows"])
        assert total == 50000

    def test_record_rows_list_observed_values_only(self):
        rep = simulate_table(SimConfig(n=30, trials=50, seed=3), stat="r")
        assert all(r["count"] > 0 for r in rep["rows"])
        assert sum(r["count"] for r in rep["rows"]) == 50
        assert len(rep["rows"]) < 31

    def test_bad_stat(self):
        with pytest.raises(ValueError):
            simulate_table(SimConfig(n=1, trials=1, seed=0), stat="x")

    def test_meta_key_order(self):
        # The JSON report writes meta in this order, so it is part of its bytes.
        rep = simulate_table(SimConfig(n=4, trials=100, seed=12))
        assert list(rep["meta"]) == SAMPLER_KEYS + ["command", "stat", "overflow"]


class TestCheckpointTable:
    def test_rows_per_horizon(self):
        rep = checkpoint_table(
            SimConfig(n=40, trials=2000, seed=3), checkpoints=(10, 40)
        )
        horizons = {r["n"] for r in rep["rows"]}
        assert horizons == {10, 40}
        assert set(rep["meta"]["overflow_by_checkpoint"]) == {10, 40}
        assert rep["meta"]["n"] == 40

    def test_meta_key_order(self):
        rep = checkpoint_table(SimConfig(n=40, trials=100, seed=3), checkpoints=(40, 10))
        assert list(rep["meta"]) == SAMPLER_KEYS + [
            "checkpoints", "command", "stat", "overflow_by_checkpoint"
        ]
        assert rep["meta"]["checkpoints"] == [10, 40]


class TestConvergeTable:
    def test_source_selection(self):
        rep = converge_table([2, 4, 20], kmax=3, trials=5000, seed=11)
        assert rep["meta"]["oracle_n"] == [2, 4]
        assert rep["meta"]["simulated_n"] == [20]
        by = {(r["n"], r["k"]): r for r in rep["rows"]}
        assert by[(2, 1)]["oracle_exact"] == F(1, 3)
        assert by[(20, 1)]["oracle_exact"] is None
        assert by[(20, 1)]["empirical"] is not None

    def test_sampled_n_runs_on_every_usable_cpu_by_default(self, monkeypatch):
        seen = []
        simulate = reports.simulate_b_suffix
        monkeypatch.setattr(
            reports, "simulate_b_suffix", lambda cfg: seen.append(cfg) or simulate(cfg)
        )
        converge_table([20], kmax=1, trials=100, seed=11)
        assert [cfg.workers for cfg in seen] == [usable_cpus()]

    def test_default_workers_follow_the_cpus_at_call_time(self, monkeypatch):
        # The CPU count changes after import, as under a later taskset.
        seen = []
        simulate = reports.simulate_b_suffix
        monkeypatch.setattr(
            reports, "simulate_b_suffix", lambda cfg: seen.append(cfg) or simulate(cfg)
        )
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        converge_table([20], kmax=1, trials=100, seed=11)
        assert [cfg.workers for cfg in seen] == [3]

    def test_k0_deviation_vanishes(self):
        rep = converge_table([2, 4, 20], kmax=2, trials=1000, seed=11)
        for row in rep["rows"]:
            if row["k"] == 0:
                assert row["abs_dev"] == 0.0

    def test_k1_deviation_identity(self):
        rep = converge_table([2, 10, 100], kmax=1, trials=0, seed=0)
        for row in rep["rows"]:
            if row["k"] == 1:
                n = row["n"]
                assert row["abs_dev"] == float(F(1, 2 * n * (n + 1)))

    def test_exact_deviations_within_bound(self):
        # Regression: the k >= 2 rows once measured the survivor tail alone,
        # whose distance from the limit exceeds the bound at every n here.
        rep = converge_table([64, 512, 2000], kmax=8, trials=0, seed=0)
        assert len(rep["rows"]) == 27
        for row in rep["rows"]:
            assert row["exact_full"] is not None
            assert row["abs_dev"] <= row["remainder_bound"], (row["n"], row["k"])

    def test_cells_end_at_the_exact_ceiling(self, monkeypatch):
        # As for exact_table: n = 50 sits on the ceiling, n = 51 is past it.
        monkeypatch.setattr(exact, "EXACT_MAX_WORK", 4 * 50 * 50)
        law = exact.exact_pmf_b(50, 3)
        by = {(r["n"], r["k"]): r for r in converge_table([50, 51], 3, 0, 0)["rows"]}
        assert [by[(50, k)]["exact_full"] for k in range(4)] == [law.prob(k) for k in range(4)]
        assert [by[(50, k)]["exact_tail"] for k in range(4)] == [
            None, *(law.tail_mass(k) for k in (1, 2, 3))
        ]
        assert [by[(51, k)]["exact_full"] for k in range(4)] == [
            F(1, 2), F(1, 4) + F(1, 5304), None, None
        ]
        assert all(by[(51, k)]["exact_tail"] is None for k in range(4))

    def test_a_repeated_n_is_computed_once(self, monkeypatch):
        calls = []
        for name in ("simulate_b_suffix", "exact_pmf_b", "oracle_joint"):
            fn = getattr(reports, name)
            monkeypatch.setattr(
                reports, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
            )
        rep = converge_table([20, 20, 3, 3], kmax=2, trials=1000, seed=1, workers=1)
        assert sorted(calls) == [
            "exact_pmf_b", "exact_pmf_b", "oracle_joint", "simulate_b_suffix"
        ]
        assert rep["meta"]["simulated_n"] == [20, 20]
        assert rep["meta"]["oracle_n"] == [3, 3]
        rows = rep["rows"]
        assert [(r["n"], r["k"]) for r in rows] == [
            (n, k) for n in (20, 20, 3, 3) for k in range(3)
        ]
        assert rows[:3] == rows[3:6] and rows[6:9] == rows[9:]
        single = converge_table([20, 3], kmax=2, trials=1000, seed=1, workers=1)
        assert single["rows"] == rows[3:9]

    def test_no_trials_leaves_empirical_empty(self):
        rep = converge_table([20], kmax=2, trials=0, seed=0)
        assert rep["meta"]["simulated_n"] == []
        assert all(r["empirical"] is None for r in rep["rows"])

    def test_validation(self):
        with pytest.raises(ValueError):
            converge_table([], kmax=1, trials=0, seed=0)
        with pytest.raises(ValueError):
            converge_table([0], kmax=1, trials=0, seed=0)
        with pytest.raises(ValueError):
            converge_table([2], kmax=-1, trials=0, seed=0)

    @pytest.mark.parametrize("seed, workers", [(1.0, 1), (1, 1.5)])
    def test_non_integer_seed_or_workers_refused_even_unsampled(self, seed, workers):
        with pytest.raises(ValueError, match="must be an integer"):
            converge_table([2], kmax=1, trials=0, seed=seed, workers=workers)


class TestFitStatistics:
    def test_tv_basic(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert tv_distance([0.5, 0.5], [0.25, 0.75]) == 0.25
        assert tv_distance([], []) == 0.0

    def test_tv_strict_lengths(self):
        with pytest.raises(ValueError):
            tv_distance([0.5], [0.25, 0.25])

    def test_chi_square_perfect_fit(self):
        probs = [F(1, 2), F(1, 4), F(1, 4)]
        observed = [500, 250, 250]
        stat, dof, pval, bins = chi_square_fit(observed, probs, 1000)
        assert stat == 0.0
        assert dof == 2
        assert pval == 1.0
        assert bins == 3

    def test_chi_square_pools_thin_tail(self):
        probs = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 16)]
        observed = [30, 16, 8, 4, 2]
        stat, dof, pval, bins = chi_square_fit(observed, probs, 60)
        assert bins < 5
        assert dof == bins - 1
        assert 0.0 <= pval <= 1.0


class TestChi2Survival:
    def test_matches_scipy_into_the_deep_tail(self):
        stats = pytest.importorskip("scipy.stats")
        targets = [10.0**-e for e in range(0, 301, 5)]
        for dof in range(1, 41):
            xs = [float(stats.chi2.isf(p, dof)) for p in targets]
            xs += [1e-9, 1e-3, 0.5, float(dof), 3.0 * dof + 10]
            refs = [float(stats.chi2.sf(x, dof)) for x in xs]
            assert min(refs) < 1e-299
            for x, ref in zip(xs, refs):
                assert chi2_sf(x, dof) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_closed_forms_at_one_and_two_dof(self):
        for x in (1e-8, 0.01, 0.7, 3.84, 25.0, 900.0):
            assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-15)
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-13)

    def test_nonpositive_statistic_is_certain(self):
        for dof in (1, 2, 7, 40):
            assert chi2_sf(0.0, dof) == 1.0
            assert chi2_sf(-3.5, dof) == 1.0

    def test_infinite_statistic_is_impossible(self):
        for dof in (1, 2, 3, 7, 40):
            assert chi2_sf(math.inf, dof) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestGofReport:
    def test_dual_reference_structure(self):
        rep = gof_report(SimConfig(n=8, trials=10**5, seed=404))
        refs = [(r["reference"], r["statistic"]) for r in rep["rows"]]
        assert refs == [
            ("geometric-limit", "tv"),
            ("geometric-limit", "chi2"),
            ("enumeration", "tv"),
            ("enumeration", "chi2"),
        ]
        by = {(r["reference"], r["statistic"]): r for r in rep["rows"]}
        # The sample follows the finite-n law, so the matched reference
        # fits while the limit reference shows the finite-n gap.
        assert 0.001 < by[("enumeration", "chi2")]["p_value"] < 0.999
        assert by[("enumeration", "tv")]["value"] < 0.01
        assert by[("geometric-limit", "tv")]["value"] > 0.02

    def test_large_n_skips_enumeration(self):
        rep = gof_report(SimConfig(n=50, trials=2000, seed=7))
        refs = {r["reference"] for r in rep["rows"]}
        assert refs == {"geometric-limit"}


class TestEmitters:
    def _sample_report(self):
        return converge_table([2, 20], kmax=2, trials=400, seed=5)

    def test_json_and_csv_agree_cell_by_cell(self):
        rep = self._sample_report()
        js, cs = io.StringIO(), io.StringIO()
        emit_json(rep, js)
        emit_csv(rep, cs)
        parsed = json.loads(js.getvalue())
        lines = [
            l for l in cs.getvalue().splitlines() if not l.startswith("#")
        ]
        reader = csv.DictReader(lines)
        csv_rows = list(reader)
        assert len(csv_rows) == len(parsed["rows"])
        for jrow, crow in zip(parsed["rows"], csv_rows):
            assert set(jrow) == set(crow)
            for key, jval in jrow.items():
                cval = crow[key]
                if jval is None:
                    assert cval == ""
                elif isinstance(jval, float):
                    assert float(cval) == jval
                else:
                    assert str(jval) == cval

    def test_csv_meta_lines(self):
        rep = self._sample_report()
        cs = io.StringIO()
        emit_csv(rep, cs)
        meta_lines = [
            l for l in cs.getvalue().splitlines() if l.startswith("#")
        ]
        assert any(l.startswith("# command=converge") for l in meta_lines)
        assert any(l.startswith("# n_list=2,20") for l in meta_lines)

    def test_json_fractions_as_strings(self):
        rep = exact_table(2)
        js = io.StringIO()
        emit_json(rep, js)
        parsed = json.loads(js.getvalue())
        assert parsed["rows"][0]["exact_full"] == "1/2"

    def test_json_non_finite_floats_as_null(self):
        js = io.StringIO()
        rows = [{"x": math.inf, "y": -math.inf, "z": math.nan, "w": 0.5}]
        emit_json({"meta": {"se": math.inf}, "rows": rows}, js)
        assert json.loads(js.getvalue()) == {
            "meta": {"se": None},
            "rows": [{"x": None, "y": None, "z": None, "w": 0.5}],
        }

    def test_table_rendering(self):
        rep = exact_table(2)
        ts = io.StringIO()
        emit_table(rep, ts)
        out = ts.getvalue().splitlines()
        header = next(l for l in out if not l.startswith("#"))
        assert header.split()[:2] == ["n", "k"]
        assert any(" - " in l or l.endswith("-") for l in out[1:]), (
            "empty cells render as -"
        )

    def test_empty_rows_render_meta_only(self):
        for emit in (emit_table, emit_csv):
            out = io.StringIO()
            emit({"meta": {"command": "x"}, "rows": []}, out)
            assert out.getvalue() == "# command=x\n"


class TestReportRowSanity:
    def test_checkpoint_rows_reference_horizon_law(self):
        # A checkpoint row at horizon t uses the t-horizon bound, not the
        # final-n bound.
        rep = checkpoint_table(
            SimConfig(n=40, trials=500, seed=3), checkpoints=(10, 40)
        )
        for row in rep["rows"]:
            if row["k"] == 1:
                n = row["n"]
                assert row["remainder_bound"] == pytest.approx(
                    1 / (2 * n * (n + 1))
                )
