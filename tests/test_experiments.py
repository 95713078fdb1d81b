"""Experiment drivers: smoke runs on a tiny subset, structural checks."""

import pytest

from repro import schemes as S
from repro.analysis import experiments as E
from repro.config import DEFAULT_CONFIG, NdcLocation


@pytest.fixture(scope="module")
def runner():
    """Tiny shared runner: two benchmarks, small scale."""
    return E.ExperimentRunner(scale=0.12, benchmarks=["fft", "swim"])


class TestRunner:
    def test_baseline_cached(self, runner):
        a = runner.run("fft")
        b = runner.run("fft")
        assert a is b

    def test_improvement_of_baseline_is_zero(self, runner):
        from repro.schemes import NoNdc

        assert runner.improvement("fft", NoNdc) == 0.0


class TestTable1:
    def test_renders(self):
        res = E.table1_configuration(DEFAULT_CONFIG)
        assert "Table 1" in res.render()
        assert "5x5" in res.render()


class TestFig2(object):
    def test_shape(self, runner):
        res = E.fig2_arrival_windows(runner)
        assert set(res.data) == {l.short_name for l in NdcLocation}
        for series in res.data.values():
            for bench, cdf in series.items():
                assert len(cdf) == 6
                assert all(0 <= v <= 50.0 for v in cdf)
                assert cdf == sorted(cdf)  # CDF is monotone


class TestFig3:
    def test_breakevens_below_windows(self, runner):
        """The paper's central Section 4 finding: breakeven points sit
        well below the arrival windows."""
        res = E.fig3_breakeven_vs_window(runner)
        for loc, d in res.data.items():
            w_small = sum(d["window"][:4])      # <= 50 cycles
            b_small = sum(d["breakeven"][:4])
            assert b_small >= w_small, loc


class TestFig4:
    def test_all_bars_present(self, runner):
        res = E.fig4_scheme_benefits(runner)
        labels = set(S.DEFAULT_LINEUP)
        assert set(res.data["geomean"]) == labels
        for bench, row in res.data["per_benchmark"].items():
            assert set(row) == labels

    def test_compiler_beats_blind_waiting(self, runner):
        res = E.fig4_scheme_benefits(runner)
        g = res.data["geomean"]
        assert g["algorithm-1"] > g["default"]
        assert g["oracle"] > g["default"]


class TestFig5:
    def test_series_length(self, runner):
        res = E.fig5_window_series(runner, benches=("fft",), points=10)
        assert len(res.data["fft"]) <= 10


class TestBreakdowns:
    def test_fig6_rows_sum_to_100(self, runner):
        res = E.fig6_oracle_breakdown(runner)
        for bench, row in res.data["rows"].items():
            total = sum(row.values())
            assert total == pytest.approx(100.0, abs=0.5) or total == 0.0

    def test_fig13_runs(self, runner):
        res = E.fig13_alg1_breakdown(runner)
        assert "average" in res.data["rows"]


class TestTable2:
    def test_accuracies_in_range(self, runner):
        res = E.table2_cme_accuracy(runner)
        for bench, (l1, l2) in res.data["per_benchmark"].items():
            assert 0.0 <= l1 <= 100.0
            assert 0.0 <= l2 <= 100.0
        # Static analysis should do clearly better than coin flipping.
        assert res.data["average"][0] > 55.0


class TestFig15:
    def test_fraction_bounds(self, runner):
        res = E.fig15_alg2_exercised(runner)
        for v in res.data["per_benchmark"].values():
            assert 0.0 <= v <= 100.0


class TestFig16:
    def test_miss_rates_bounded(self, runner):
        res = E.fig16_miss_rates(runner)
        for row in res.data["per_benchmark"].values():
            for v in row.values():
                assert 0.0 <= v <= 100.0


class TestAblations:
    def test_route_reselection_reduces_router_ndc(self, runner):
        res = E.ablation_route_reselection(runner)
        assert res.data["without"] <= res.data["with"]

    def test_coarse_grain_below_fine(self):
        # Needs pattern diversity for the whole-nest mapping to hurt:
        # on a homogeneous-stream subset coarse == fine.
        div = E.ExperimentRunner(
            scale=0.12, benchmarks=["fft", "swim", "ocean", "md"]
        )
        res = E.ablation_coarse_grain(div)
        # alg1 fine vs coarse can tie within noise at tiny scales; the
        # reuse-aware alg2 must clearly lose its edge under coarse maps.
        assert res.data["algorithm-1 coarse"] <= res.data["algorithm-1 fine"] + 2.0
        assert res.data["algorithm-2 coarse"] < res.data["algorithm-2 fine"]


class TestExtensions:
    def test_layout_ablation_runs(self, runner):
        res = E.ablation_layout(runner)
        assert "per_benchmark" in res.data
        for row in res.data["per_benchmark"].values():
            assert set(row) == {"alg1", "layout+alg1", "arrays moved"}

    def test_k_sweep_monotone_in_coverage(self, runner):
        res = E.ablation_k_sweep(runner, ks=(0, 4))
        assert set(res.data["by_k"]) == {0, 4}

    def test_fidelity_summary_renders(self, runner):
        res = E.fidelity_summary(runner)
        text = res.render()
        assert "Fidelity checklist" in text
        assert "PASS" in text or "FAIL" in text


class TestRunAll:
    def test_run_all_covers_every_driver(self, runner):
        results = E.run_all(runner, verbose=False)
        names = [r.name for r in results]
        # one result per registered experiment, plus the fidelity tail
        assert len(results) == len(E.ALL_EXPERIMENTS) + 1
        assert names[-1] == "fidelity"
        assert "fig4" in names and "table2" in names
