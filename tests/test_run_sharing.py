"""One run per simulation input.

Lowering is a pure function of (config, cores, post-pass program,
plans), so equal compilations share one trace object; a simulation is a
pure function of (trace, config, scheme spec, collection flags, engine
profile), so a serial runner simulates each such input once and commits
the result under every job key that names it.  These tests pin where
sharing happens and where it must not:

* equal compilations return one trace object, unequal ones do not, and
  the interning index never outlives the trace cache's entries;
* every job of two real casts, run through one sharing runner, equals
  the job run alone in cleared caches and the job run through a pool;
* keys that differ in config, a collection flag, the engine profile or
  the scheme spec never share;
* a runner with an event bus attached always simulates, and writes the
  same event stream as runs that share nothing;
* ``execute_job`` without a memo never shares, and a trace lowered
  again after its eviction is a new input;
* results do not depend on the interpreter's hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import schemes as S
from repro.analysis.experiments import ExperimentRunner
from repro.arch.engine import OPTIMIZED, REFERENCE
from repro.arch.simulator import SystemSimulator
from repro.config import DEFAULT_CONFIG
from repro.runtime import (
    ParallelRunner,
    RuntimeOptions,
    config_digest,
    execute_job,
    job_key,
)
from repro.runtime.parallel import SimulationMemo
from repro.workloads import tracegen
from repro.workloads.tracegen import compiled_trace

SCALE = 0.1
OTHER_CFG = DEFAULT_CONFIG.with_l2_size(256 * 1024)
SRC = Path(__file__).resolve().parents[1] / "src"

SPARSE_MIXED = ("spmv.csr", "hashjoin", "bfs.frontier",
                "mix.md.spmv", "mix.fft.hash", "mix.swim.bfs")
SHOOTOUT = ("default", "oracle", "algorithm-1", "algorithm-2", "coda",
            "nmpo")
FIG4 = ("default", "oracle", "wait-5%", "wait-10%", "wait-25%",
        "wait-50%", "last-wait", "algorithm-1", "algorithm-2")


def _key(variant="alg1", scheme=None, cfg=DEFAULT_CONFIG,
         bench="spmv.csr", **flags):
    scheme = scheme if scheme is not None else S.CompilerDirected()
    return job_key(
        bench, scheme, variant, scale=SCALE,
        config_digest=config_digest(cfg), label=f"{variant}-label",
        **flags,
    )


def _job(variant="alg1", scheme=None, cfg=DEFAULT_CONFIG,
         profile=OPTIMIZED, **flags):
    """``(config, key, engine profile)`` of one simulation."""
    return cfg, _key(variant, scheme, cfg, **flags), profile


def _cast_keys(benches, labels):
    """The baseline plus every lineup bar, per benchmark."""
    runner = ExperimentRunner(scale=SCALE, benchmarks=benches,
                              lineup=labels)
    keys = []
    for bench in benches:
        keys.append(runner.job_key(bench))
        for label, factory, variant in runner.fig4_entries():
            keys.append(runner.job_key(bench, factory, variant, label))
    return keys


def _alone(cfg, key, **kwargs):
    """``key`` executed in cleared trace and warm-up caches."""
    tracegen.clear_cache()
    S.clear_profile_cache()
    return execute_job(cfg, key, **kwargs)


# ======================================================================
# trace interning
# ======================================================================
class TestTraceInterning:
    def test_equal_compilations_share_one_trace(self):
        alg1, r1 = compiled_trace("spmv.csr", "alg1", SCALE)
        alg2, r2 = compiled_trace("spmv.csr", "alg2", SCALE)
        coda, r3 = compiled_trace("spmv.csr", "coda", SCALE)
        assert alg1 is alg2 is coda
        # The pass report stays per variant.
        assert r1 is not r2 and r2 is not r3

    def test_unequal_compilations_do_not(self):
        coda, _ = compiled_trace("mix.md.spmv", "coda", 0.2)
        alg2, _ = compiled_trace("mix.md.spmv", "alg2", 0.2)
        assert coda is not alg2
        assert coda != alg2

    def test_interned_trace_equals_a_fresh_lowering(self):
        shared, _ = compiled_trace("hashjoin", "alg1", SCALE)
        assert compiled_trace("hashjoin", "alg2", SCALE)[0] is shared
        tracegen.clear_cache()
        fresh, _ = compiled_trace("hashjoin", "alg2", SCALE)
        assert fresh is not shared and fresh == shared

    def test_index_drops_evicted_inputs(self, monkeypatch):
        """A trace leaves the interning index with the last cache entry
        holding its lowering input."""
        monkeypatch.setattr(tracegen, "_CACHE_MAX", 2)
        tracegen.clear_cache()
        alg1, _ = compiled_trace("spmv.csr", "alg1", SCALE)
        assert compiled_trace("spmv.csr", "alg2", SCALE)[0] is alg1
        assert len(tracegen._lowered) == 1
        compiled_trace("fft", "original", SCALE)  # evicts alg1's entry
        assert compiled_trace("spmv.csr", "alg2", SCALE)[0] is alg1
        compiled_trace("swim", "original", SCALE)  # evicts fft's
        compiled_trace("lu", "original", SCALE)  # evicts alg2's
        held = list(tracegen._lowered.values())
        assert len(held) == 2
        assert all(trace is not alg1 for trace in held)

    def test_serial_names_one_trace_for_good(self, monkeypatch):
        """A trace lowered again after its eviction is a new trace with
        a new serial, even where it reuses the old trace's id."""
        monkeypatch.setattr(tracegen, "_CACHE_MAX", 1)
        tracegen.clear_cache()
        first = compiled_trace("spmv.csr", "alg1", SCALE)[0]
        serial = tracegen.trace_serial(first)
        compiled_trace("fft", "original", SCALE)  # evicts spmv.csr
        again = compiled_trace("spmv.csr", "alg1", SCALE)[0]
        assert again == first and again is not first
        assert tracegen.trace_serial(again) != serial


# ======================================================================
# the runner's memo
# ======================================================================
class TestRunnerSharing:
    def test_shared_job_commits_under_its_own_key(self, tmp_path):
        runner = ParallelRunner(
            DEFAULT_CONFIG,
            RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache")),
        )
        a, b = _key("alg1"), _key("alg2")
        out = runner.run_many([a, b])
        s = runner.stats
        assert (s.executed, s.shared, s.disk_writes) == (2, 1, 2)
        assert out[a] is out[b]
        assert [k for k, _ in s.job_times] == [a, b]
        assert "2 executed, 1 shared" in s.render()
        assert runner.run(b) is out[b] and s.mem_hits == 1
        warm = ParallelRunner(
            DEFAULT_CONFIG,
            RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache")),
        )
        assert warm.run(b) == out[b] and warm.stats.disk_hits == 1

    @pytest.mark.parametrize("first,second", [
        (_job(), _job(cfg=OTHER_CFG)),
        (_job(), _job(profile_windows=True)),
        (_job(), _job(collect_window_series=True)),
        (_job(), _job(collect_pc_stats=True)),
        (_job(), _job(profile=REFERENCE)),
        (_job(scheme=S.CompilerDirected(default_timeout=16)),
         _job(scheme=S.CompilerDirected(default_timeout=64))),
    ], ids=["config", "profile_windows", "collect_window_series",
            "collect_pc_stats", "engine_profile", "spec"])
    def test_different_inputs_never_share(self, first, second):
        memo = SimulationMemo()
        for cfg, key, profile in (first, second):
            got = execute_job(cfg, key, engine_profile=profile, memo=memo)
        assert memo.hits == 0
        assert got == _alone(cfg, key, engine_profile=profile)

    def test_evicted_trace_is_a_new_input(self, monkeypatch):
        """A job whose trace was evicted and lowered again is a new
        input: the new trace has a new serial, so the memo misses."""
        monkeypatch.setattr(tracegen, "_CACHE_MAX", 1)
        tracegen.clear_cache()
        memo = SimulationMemo()
        first = execute_job(DEFAULT_CONFIG, _key("alg1"), memo=memo)
        execute_job(DEFAULT_CONFIG, _key("alg1", bench="fft"), memo=memo)
        again = execute_job(DEFAULT_CONFIG, _key("alg2"), memo=memo)
        assert memo.hits == 0
        assert again == first and again is not first

    def test_execute_job_without_memo_never_shares(self, monkeypatch):
        calls = []
        real_run = SystemSimulator.run

        def counting_run(self, trace):
            calls.append(trace)
            return real_run(self, trace)

        monkeypatch.setattr(SystemSimulator, "run", counting_run)
        a = execute_job(DEFAULT_CONFIG, _key("alg1"))
        b = execute_job(DEFAULT_CONFIG, _key("alg2"))
        assert len(calls) == 2 and calls[0] is calls[1]
        assert a == b and a is not b

    def test_event_bus_run_always_simulates(self, tmp_path):
        """A traced runner shares nothing, and writes the same event
        stream as one runner per job."""
        keys = [_key("alg1"), _key("alg2"), _key("coda")]
        path = tmp_path / "shared.jsonl"
        runner = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1, trace_events=str(path))
        )
        runner.run_many(keys)
        runner.close()
        assert runner.stats.shared == 0
        alone = []
        for i, key in enumerate(keys):
            one = tmp_path / f"alone{i}.jsonl"
            r = ParallelRunner(
                DEFAULT_CONFIG, RuntimeOptions(jobs=1, trace_events=str(one))
            )
            r.run(key)
            r.close()
            alone.extend(one.read_text().splitlines())
        lines = path.read_text().splitlines()
        assert lines == alone
        jobs = {json.loads(line)["job"] for line in lines}
        assert jobs == {k.describe() for k in keys}


@pytest.mark.slow
@pytest.mark.parametrize("benches,labels", [
    (SPARSE_MIXED, SHOOTOUT),
    (("fft", "swim", "md"), FIG4),
], ids=["shootout-sparse-mixed", "fig4-fft-swim-md"])
def test_cast_results_equal_unshared_runs(benches, labels):
    """Every job of a real cast, run through one sharing runner, equals
    the job run alone in cleared caches and the job run in a pool."""
    keys = _cast_keys(benches, labels)
    runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=1))
    shared = runner.run_many(keys)
    assert runner.stats.executed == len(keys)
    assert runner.stats.shared > 0
    pooled = ParallelRunner(
        DEFAULT_CONFIG, RuntimeOptions(jobs=2)
    ).run_many(keys)
    for key in keys:
        alone = _alone(DEFAULT_CONFIG, key)
        assert shared[key] == alone, key.describe()
        assert pooled[key] == alone, key.describe()


#: One small cast through the in-memory sweep; prints every unit's
#: ``SimStats`` digest and the shared count as one JSON line.
_HASH_SEED_SCRIPT = """
import json
from repro import api
from repro.runtime.keys import digest_of

res = api.sweep(
    {"benchmarks": ["fft", "spmv.csr"],
     "schemes": ["default", "algorithm-1", "algorithm-2", "coda", "nmpo"],
     "scales": [0.1]},
    root=None, cache=False,
)
print(json.dumps({
    "units": {uid: digest_of(r.stats) for uid, r in res.results.items()},
    "shared": res.stats.shared,
}))
"""


@pytest.mark.slow
def test_results_do_not_depend_on_the_hash_seed():
    """Interning keys on hashed IR; the results and what is shared must
    not move with ``PYTHONHASHSEED``."""
    seen = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
            capture_output=True, text=True, timeout=600, check=True,
        )
        seen.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert len(seen[0]["units"]) == 12
    assert seen[0]["shared"] > 0
    assert seen[0] == seen[1]
