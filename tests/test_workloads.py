"""The 20-benchmark suite: construction, determinism, scaling."""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.ir import Program
from repro.isa import OpKind, trace_op_count
from repro.workloads import (
    benchmark_trace,
    build_benchmark,
    build_suite,
    tracegen,
)
from repro.workloads.suite import BENCHMARK_NAMES
from repro.workloads.tracegen import compiled_trace


class TestSuiteConstruction:
    def test_twenty_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 20

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_benchmark_builds(self, name):
        prog = build_benchmark(name, scale=0.1)
        assert isinstance(prog, Program)
        assert prog.name == name
        assert prog.nests

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            build_benchmark("doom")

    def test_build_suite_subset(self):
        suite = build_suite(0.1, names=["fft", "lu"])
        assert set(suite) == {"fft", "lu"}

    def test_every_benchmark_has_computes(self):
        for name in BENCHMARK_NAMES:
            prog = build_benchmark(name, scale=0.1)
            assert any(True for _ in prog.computes()), name

    def test_address_spaces_disjoint_across_benchmarks(self):
        # Staggered bases keep at least the starting arrays apart.
        a = build_benchmark("md", 0.1).nests[0].arrays()[0]
        b = build_benchmark("fft", 0.1).nests[0].arrays()[0]
        assert a.base != b.base


class TestScaling:
    def test_scale_grows_trace(self):
        small = trace_op_count(benchmark_trace("swim", scale=0.1))
        big = trace_op_count(benchmark_trace("swim", scale=0.3))
        assert big > small

    def test_minimum_scale_safe(self):
        # Even absurdly small scales must produce valid programs.
        for name in ("swim", "fft", "barnes"):
            tr = benchmark_trace(name, scale=0.01)
            assert trace_op_count(tr) > 0


class TestDeterminism:
    def test_program_rebuild_identical_layout(self):
        a = build_benchmark("ocean", 0.2)
        b = build_benchmark("ocean", 0.2)
        for na, nb in zip(a.nests, b.nests):
            assert na.name == nb.name
            assert [ar.base for ar in na.arrays()] == [ar.base for ar in nb.arrays()]

    def test_trace_identical_across_calls(self):
        a = benchmark_trace("kdtree", scale=0.15)
        b = benchmark_trace("kdtree", scale=0.15)
        assert a == b


class TestCompiledVariants:
    def test_alg1_produces_pre_computes(self):
        tr, report = compiled_trace("fft", "alg1", scale=0.15)
        kinds = {op.kind for s in tr for op in s}
        assert OpKind.PRE_COMPUTE in kinds
        assert report is not None

    def test_alg2_report_not_above_alg1_offloads(self):
        _, r1 = compiled_trace("swim", "alg1", scale=0.15)
        _, r2 = compiled_trace("swim", "alg2", scale=0.15)
        assert r2.opportunities_exercised <= r1.opportunities_exercised

    def test_original_has_no_pre_computes(self):
        tr = benchmark_trace("fft", "original", scale=0.15)
        assert all(op.kind != OpKind.PRE_COMPUTE for s in tr for op in s)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            benchmark_trace("fft", "alg3", scale=0.1)

    def test_pass_options_rejected_for_original(self):
        with pytest.raises(ValueError):
            benchmark_trace("fft", "original", scale=0.1, coarse_grain=True)

    def test_cache_hit_returns_same_object(self):
        a = benchmark_trace("lu", scale=0.12)
        b = benchmark_trace("lu", scale=0.12)
        assert a is b  # LRU-cached

    def test_cache_evicts_least_recently_used(self, monkeypatch):
        """A hit refreshes its entry: an entry read again survives the
        next eviction, and an entry not read again does not."""
        monkeypatch.setattr(tracegen, "_CACHE_MAX", 2)
        tracegen.clear_cache()
        lu = benchmark_trace("lu", scale=0.1)
        fft = benchmark_trace("fft", scale=0.1)
        assert benchmark_trace("lu", scale=0.1) is lu
        benchmark_trace("swim", scale=0.1)  # evicts one entry
        assert benchmark_trace("lu", scale=0.1) is lu
        assert benchmark_trace("fft", scale=0.1) is not fft

    @pytest.mark.parametrize("bench,variant,override", [
        ("md", "alg1", lambda c: dataclasses.replace(
            c, memory=dataclasses.replace(c.memory, interleave_bytes=1024))),
        ("swim", "alg2", lambda c: dataclasses.replace(
            c, l1=dataclasses.replace(c.l1, line_bytes=32))),
    ], ids=["md-interleave_bytes", "swim-l1_line_bytes"])
    def test_cache_keys_on_the_whole_config(self, bench, variant, override):
        """A config differing only in fields the compiler reads but a
        partial key would skip must not be served the default config's
        trace: the cached build equals one from a cleared cache."""
        cfg = override(DEFAULT_CONFIG)
        compiled_trace(bench, variant, 0.1, DEFAULT_CONFIG)
        after_default = compiled_trace(bench, variant, 0.1, cfg)
        tracegen.clear_cache()
        fresh = compiled_trace(bench, variant, 0.1, cfg)
        assert after_default[0] == fresh[0]

    def test_fits_on_mesh(self):
        for name in ("md", "water"):
            tr = benchmark_trace(name, scale=0.1)
            assert len(tr) <= DEFAULT_CONFIG.noc.num_nodes


class TestReuseFlags:
    def test_shared_operand_chains_flagged(self):
        tr = benchmark_trace("swim", scale=0.2)
        flagged = sum(
            1 for s in tr for op in s
            if op.is_ndc_candidate() and (op.x_reused or op.y_reused)
        )
        assert flagged > 0

    def test_stream_chains_mostly_unflagged(self):
        tr = benchmark_trace("fft", scale=0.2)
        candidates = [op for s in tr for op in s if op.is_ndc_candidate()]
        unflagged = sum(1 for op in candidates
                        if not (op.x_reused or op.y_reused))
        assert unflagged > len(candidates) // 4
