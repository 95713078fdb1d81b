"""Chunk executor: run a chunk of jobs in one call, sharing setup.

The process pool ships every multi-job chunk through
:func:`_pool_batch_worker`, and ``repro bench``'s lineup tier times
:func:`execute_batch` directly.  A lineup or a sweep chunk replays the
*same* benchmark/variant/scale under many schemes; the executor runs a
whole chunk of :class:`~repro.runtime.keys.JobKey` jobs and shares
everything that is pure per trace signature:

* **trace generation** — one process-wide LRU keyed by the full trace
  signature (benchmark, variant, scale, config, tunables, pass
  options), so every job of the chunk replays the same trace object;
* **route tables and serialization memos** — already process-wide
  (:mod:`repro.arch.routing`); a batch touches each exactly once and
  every subsequent job rides the warm entries.

Results are byte-identical to per-job execution — ``execute_batch``
calls the same :func:`execute_job` core, just with the trace handed in
— pinned by ``tests/test_batch.py``.  The trace LRU duplicates
:mod:`repro.workloads.tracegen`'s own process-wide cache, which already
hands every job the same trace object.  Faults inside a pooled chunk
degrade to singleton chunks (the
:class:`~repro.runtime.parallel.ParallelRunner` fault ladder); this
module itself stays fault-agnostic and deterministic.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterator, List, Sequence, Tuple

from repro.arch.engine import OPTIMIZED
from repro.arch.simulator import SimulationResult
from repro.config import ArchConfig
from repro.runtime.keys import JobKey
from repro.workloads.tracegen import compiled_trace

#: trace signature -> (trace, pass report); a handful of signatures is
#: plenty (a lineup has one, a sweep chunk a few)
_TRACE_LRU_CAP = 32
_trace_lru: "OrderedDict[tuple, tuple]" = OrderedDict()


def trace_signature(cfg: ArchConfig, key: JobKey) -> tuple:
    """The part of a job's identity that determines its trace."""
    return (key.bench, key.variant, key.scale, cfg, key.tunables,
            key.trace_opts)


def cached_compiled_trace(cfg: ArchConfig, key: JobKey):
    """``compiled_trace`` through the process-wide signature LRU.

    Returns the same ``(trace, report)`` pair; jobs that share a trace
    signature share the trace *object*.
    """
    sig = trace_signature(cfg, key)
    hit = _trace_lru.get(sig)
    if hit is not None:
        _trace_lru.move_to_end(sig)
        return hit
    built = compiled_trace(
        key.bench, key.variant, key.scale, cfg,
        tunables=key.tunables, **dict(key.trace_opts)
    )
    _trace_lru[sig] = built
    if len(_trace_lru) > _TRACE_LRU_CAP:
        _trace_lru.popitem(last=False)
    return built


def clear_trace_cache() -> None:
    """Drop the trace LRU (tests; long-lived workers between campaigns)."""
    _trace_lru.clear()


def execute_batch(
    cfg: ArchConfig,
    keys: Sequence[JobKey],
    engine_profile: str = OPTIMIZED,
) -> Iterator[Tuple[JobKey, SimulationResult, float]]:
    """Execute ``keys`` in order, yielding ``(key, result, seconds)``.

    Lazy: nothing runs before iteration, and a consumer may stop
    early.
    """
    from repro.runtime.parallel import execute_job

    for key in keys:
        t0 = time.perf_counter()
        trace, _ = cached_compiled_trace(cfg, key)
        result = execute_job(
            cfg, key, engine_profile=engine_profile, trace=trace
        )
        yield key, result, time.perf_counter() - t0


def _pool_batch_worker(
    payload: Tuple[ArchConfig, Sequence[JobKey], str],
) -> List[Tuple[JobKey, SimulationResult, float]]:
    """Top-level (picklable) pool entry: one whole chunk per worker."""
    cfg, keys, engine_profile = payload
    return list(execute_batch(cfg, keys, engine_profile=engine_profile))
