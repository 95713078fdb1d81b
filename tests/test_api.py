"""The stable ``repro.api`` facade.

Covers the seven verbs' contracts (including the uniform
``profile=``/``options=``/``cache=`` runtime-control keywords), the lazy
top-level re-exports, that the retired ``repro.analysis`` driver
re-exports are really gone (the deprecation shims served their
window), and — critical for the cache-schema acceptance bar — that a
result computed through the facade is a warm cache hit for the
internal drivers (the facade never forks
:class:`~repro.runtime.keys.JobKey` digests).
"""

import importlib
import inspect

import pytest

from repro import api
from repro.arch.simulator import SimulationResult
from repro.runtime import RunnerStats, RuntimeOptions

SCALE = 0.08


class TestSimulate:
    def test_baseline(self):
        res = api.simulate("fft", scale=SCALE, cache=False)
        assert isinstance(res, SimulationResult)
        assert res.cycles > 0

    def test_scheme(self):
        base = api.simulate("fft", scale=SCALE, cache=False)
        orc = api.simulate("fft", "oracle", scale=SCALE, cache=False)
        assert orc.cycles != base.cycles

    def test_unknown_scheme_raises(self):
        with pytest.raises(Exception, match="warp-drive"):
            api.simulate("fft", "warp-drive", scale=SCALE, cache=False)

    def test_facade_shares_cache_with_internal_driver(self, tmp_path):
        """No digest fork: an api.simulate result is a disk hit for
        ExperimentRunner, and vice versa."""
        from repro.analysis.experiments import ExperimentRunner
        from repro.schemes import build_scheme

        opts = RuntimeOptions(jobs=1, cache_dir=str(tmp_path))
        via_api = api.simulate(
            "fft", "algorithm-1", scale=SCALE, options=opts
        )

        stats = RunnerStats()
        runner = ExperimentRunner(
            scale=SCALE, runtime=opts, stats=stats
        )
        try:
            entry = build_scheme("algorithm-1", runner.tunables)
            direct = runner.run("fft", entry.factory, entry.variant)
        finally:
            runner.engine.close()
        assert stats.executed == 0, \
            "the driver must hit the facade's cache entry"
        assert stats.disk_hits == 1
        assert direct.cycles == via_api.cycles


class TestLineup:
    def test_fig4_shape(self):
        res = api.lineup(
            scale=SCALE, benchmarks=["fft", "swim"], cache=False
        )
        assert "per_benchmark" in res.data and "geomean" in res.data
        assert set(res.data["per_benchmark"]) == {"fft", "swim"}
        assert "geomean" in res.render()


class TestEvaluate:
    def test_filtered(self):
        out = api.evaluate(
            ["table1"], scale=SCALE, benchmarks=["fft"], cache=False
        )
        assert len(out) == 1
        (res,) = out.values()
        assert "Table 1" in res.render()

    def test_stats_threading(self, tmp_path):
        stats = RunnerStats()
        api.evaluate(
            ["fig4"], scale=SCALE, benchmarks=["fft"],
            options=RuntimeOptions(jobs=1, cache_dir=str(tmp_path)),
            stats=stats,
        )
        assert stats.executed > 0


class TestSweep:
    def test_dict_spec_in_memory(self):
        res = api.sweep(
            {
                "benchmarks": ["fft"],
                "schemes": ["oracle"],
                "scales": [SCALE],
            },
            cache=False,
        )
        assert res.ok
        assert res.root is None
        assert "oracle" in res.report

    def test_path_spec_and_resume(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            '{"name": "api-demo", "benchmarks": ["fft"], '
            '"schemes": ["oracle"], "scales": [%s]}' % SCALE
        )
        opts = RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache"))
        res = api.sweep(spec_file, root=tmp_path / "runs", options=opts)
        assert res.ok and res.stats.executed == 2
        again = api.sweep(
            spec_file, root=tmp_path / "runs", resume=True, options=opts
        )
        assert again.stats.executed == 0
        assert again.summary == res.summary

    def test_server_keyword_attaches_remote_worker(self, tmp_path):
        """``sweep(server=...)`` drains a served campaign as a network
        worker and returns a WorkerResult (no local root needed)."""
        import json

        from repro.campaign import (
            ClaimServer, LocalTransport, SweepSpec, WorkerResult,
        )

        spec = SweepSpec(
            name="api-remote", benchmarks=("fft",),
            schemes=("oracle",), scales=(SCALE,),
        )
        root = tmp_path / "runs"
        cdir = root / spec.campaign_id
        cdir.mkdir(parents=True)
        (cdir / "spec.json").write_text(json.dumps(
            spec.to_json_dict(), indent=2, sort_keys=True) + "\n")
        server = ClaimServer(
            root, spec.campaign_id,
            options=RuntimeOptions(cache_dir=str(tmp_path / "srv-cache")),
        )
        try:
            out = api.sweep(
                server=LocalTransport(server.dispatch),
                options=RuntimeOptions(
                    cache_dir=str(tmp_path / "worker-cache")
                ),
            )
            assert isinstance(out, WorkerResult)
            assert len(out.results) == len(spec.expand())
            assert server.is_complete() and server.finalize()
            assert (cdir / "summary.json").exists()
        finally:
            server.close()

    def test_server_keyword_rejects_local_only_arguments(self):
        with pytest.raises(ValueError, match="serving host"):
            api.sweep(server="http://localhost:1", workers=3)
        with pytest.raises(ValueError, match="serving host"):
            api.sweep(server="http://localhost:1", root="runs")
        with pytest.raises(TypeError, match="spec"):
            api.sweep()


class TestTune:
    def test_smoke_routes_through_campaign(self):
        res = api.tune(
            scale=SCALE, smoke=True, samples=1, cache=False,
            grid={"cache_timeout": (30, 40)},
            cheap_benchmarks=("fft",), full_benchmarks=("fft",),
            descent_rounds=0,
        )
        assert res.scale == SCALE
        assert res.evaluations >= 1
        assert res.best is not None


class TestCharacterize:
    def test_baseline_profile(self):
        prof = api.characterize("fft", scale=SCALE, cache=False)
        assert prof.cycles > 0
        assert prof.bottleneck_class  # one of BOTTLENECK_CLASSES
        from repro.analysis.characterize import BOTTLENECK_CLASSES

        assert prof.bottleneck_class in BOTTLENECK_CLASSES

    def test_profile_knob_does_not_change_class(self):
        a = api.characterize(
            "fft", "oracle", scale=SCALE, cache=False,
            profile="optimized",
        )
        b = api.characterize(
            "fft", "oracle", scale=SCALE, cache=False,
            profile="reference",
        )
        assert a == b, "engine profiles must not leak into the signals"


class TestBench:
    def test_smoke_report_shape(self):
        report = api.bench(smoke=True)
        assert report["smoke"] is True
        for section in ("engine", "single_sim", "lineup"):
            assert section in report
        assert report["schema"] == 3
        for tier in ("single_sim", "lineup"):
            assert set(report[tier]) >= {
                "optimized_s", "reference_s", "speedup"
            }
            assert not any("vectorized" in k for k in report[tier])

    def test_baseline_gate_attached(self):
        report = api.bench(smoke=True)
        gated = api.bench(smoke=True, baseline=report,
                          max_slowdown=95.0)
        assert "gate" in gated
        assert set(gated["gate"]) == {"ok", "messages"}

    def test_rejects_unknown_knobs_like_every_verb(self):
        with pytest.raises(ValueError, match="engine profile"):
            api.bench(smoke=True, profile="turbo")


class TestUniformKeywords:
    """Every facade verb accepts the same runtime-control keywords."""

    VERBS = ("simulate", "lineup", "evaluate", "tune", "sweep",
             "characterize", "bench")
    UNIFORM = ("profile", "options", "cache")

    def test_all_seven_verbs_exported(self):
        assert sorted(api.__all__) == sorted(self.VERBS)

    def test_uniform_runtime_keywords(self):
        for verb in self.VERBS:
            params = inspect.signature(getattr(api, verb)).parameters
            missing = [k for k in self.UNIFORM if k not in params]
            assert not missing, (
                f"api.{verb} is missing uniform keyword(s): {missing}"
            )

    def test_backend_validation_uniform(self):
        """The retired ``backend=`` keyword is gone from every verb:
        passing it is a TypeError, raised before any work starts."""
        args = {
            "simulate": ("fft",),
            "characterize": ("fft",),
            "sweep": ({"benchmarks": ["fft"], "scales": [SCALE]},),
        }
        for verb in self.VERBS:
            fn = getattr(api, verb)
            assert "backend" not in inspect.signature(fn).parameters
            with pytest.raises(TypeError, match="backend"):
                fn(*args.get(verb, ()), backend="per-unit")


class TestSurface:
    def test_top_level_reexports_are_lazy_aliases(self):
        import repro

        assert repro.evaluate is api.evaluate
        assert repro.lineup is api.lineup
        assert repro.sweep is api.sweep
        assert repro.tune is api.tune
        assert repro.characterize is api.characterize
        assert repro.api is api

    def test_bench_name_stays_with_the_package(self):
        """``repro.bench`` is the benchmark *package* (import
        precedence beats any lazy alias); the facade verb is reached
        as ``repro.api.bench`` only."""
        import repro
        import repro.bench as bench_pkg

        assert repro.bench is bench_pkg
        assert callable(api.bench)

    def test_top_level_simulate_stays_low_level(self):
        """``repro.simulate`` remains the trace-level simulator — the
        facade's benchmark-level verb lives at ``repro.api.simulate``."""
        import repro

        assert repro.simulate is not api.simulate

    def test_retired_analysis_reexports_are_gone(self):
        """The deprecated driver re-exports were removed after their
        two-release window; the real homes still work."""
        mod = importlib.import_module("repro.analysis")
        for name in ("ExperimentRunner", "run_all", "fig4_scheme_benefits"):
            with pytest.raises(AttributeError):
                getattr(mod, name)
            assert name not in mod.__all__
        from repro.analysis.experiments import ExperimentRunner, run_all

        assert callable(run_all) and ExperimentRunner is not None

    def test_unknown_analysis_attr_still_raises(self):
        mod = importlib.import_module("repro.analysis")
        with pytest.raises(AttributeError):
            getattr(mod, "definitely_not_a_driver")
