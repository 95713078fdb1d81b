"""The pool's one chunk entry (:func:`repro.runtime.parallel._pool_worker`).

The pool ships every chunk, singleton or not, through it; it must be
observationally identical to per-job execution.  Two contracts are
pinned here:

1. **result identity** — the entry over a lineup chunk returns exactly
   what per-unit ``execute_job`` computes for each key, in key order;
2. **amortization is real** — jobs sharing a trace signature share the
   trace *object* (generated once per chunk, through tracegen's cache).

Fault fallback lives in the runtime's one ladder
(``tests/test_runtime_faults.py``), and byte-identity across campaign
drains in ``tests/test_campaign_remote.py::TestDrainIdentity``.
"""

import pytest

from repro import schemes as S
from repro.arch.engine import OPTIMIZED
from repro.config import DEFAULT_CONFIG
from repro.runtime import JobKey, config_digest
from repro.runtime.keys import trace_signature
from repro.runtime.parallel import _pool_worker, execute_job
from repro.workloads import tracegen

SCALE = 0.08
CFG_DIGEST = config_digest(DEFAULT_CONFIG)


def lineup_keys(benchmark: str = "fft"):
    """A small lineup chunk: every Fig. 4 scheme over one benchmark."""
    keys = []
    for entry in S.build_lineup():
        scheme = entry.build()
        keys.append(JobKey(
            bench=benchmark, variant=entry.variant,
            scheme_spec=scheme.spec(), label=scheme.name,
            scale=SCALE, config_digest=CFG_DIGEST,
        ))
    return keys


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    tracegen.clear_cache()
    yield
    tracegen.clear_cache()


class TestExecuteBatch:
    def test_results_identical_to_per_unit(self):
        keys = lineup_keys()
        items = _pool_worker((DEFAULT_CONFIG, keys, OPTIMIZED))
        assert [key for key, _, _ in items] == keys, (
            "the chunk entry must preserve key order"
        )
        for key, result, dt in items:
            assert dt >= 0
            assert result == execute_job(DEFAULT_CONFIG, key), (
                f"chunk result differs from per-unit for {key.label}"
            )

    def test_trace_shared_by_signature(self):
        """Jobs with the same trace signature ride one trace object."""
        keys = [k for k in lineup_keys() if k.variant == "original"]
        assert len(keys) >= 2, "lineup must reuse the original variant"
        traces = [
            tracegen.compiled_trace(
                k.bench, k.variant, k.scale, DEFAULT_CONFIG,
                tunables=k.tunables, **dict(k.trace_opts)
            )[0]
            for k in keys
        ]
        for other in traces[1:]:
            assert other is traces[0]

    def test_signature_separates_variants(self):
        keys = lineup_keys()
        variants = {k.variant for k in keys}
        sigs = {trace_signature(DEFAULT_CONFIG, k) for k in keys}
        assert len(sigs) == len(variants), (
            "one trace signature per compilation variant"
        )
