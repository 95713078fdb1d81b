"""Chunk executor: run a chunk of jobs in one call, sharing setup.

The process pool ships every multi-job chunk through
:func:`_pool_batch_worker`, and ``repro bench``'s lineup tier times
:func:`execute_batch` directly.  A lineup or a sweep chunk replays the
*same* benchmark/variant/scale under many schemes; the pool groups
chunks by :func:`trace_signature`, and everything that is pure per
signature is shared:

* **trace generation** — :mod:`repro.workloads.tracegen`'s process-wide
  LRU is keyed by the full trace signature (benchmark, variant, scale,
  config, tunables, pass options), so every job of the chunk replays
  the same trace object;
* **route tables and serialization memos** — already process-wide
  (:mod:`repro.arch.routing`); a batch touches each exactly once and
  every subsequent job rides the warm entries.

Results are byte-identical to per-job execution — ``execute_batch``
calls the same :func:`execute_job` core — pinned by
``tests/test_batch.py``.  Faults inside a pooled chunk degrade to
singleton chunks (the :class:`~repro.runtime.parallel.ParallelRunner`
fault ladder); this module itself stays fault-agnostic and
deterministic.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Sequence, Tuple

from repro.arch.engine import OPTIMIZED
from repro.arch.simulator import SimulationResult
from repro.config import ArchConfig
from repro.runtime.keys import JobKey
from repro.workloads import tracegen


def trace_signature(cfg: ArchConfig, key: JobKey) -> tuple:
    """The part of a job's identity that determines its trace."""
    return (key.bench, key.variant, key.scale, cfg, key.tunables,
            key.trace_opts)


def clear_trace_cache() -> None:
    """Drop the process-wide trace cache (tests; benchmark harnesses)."""
    tracegen.clear_cache()


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
        result = execute_job(cfg, key, engine_profile=engine_profile)
        yield key, result, time.perf_counter() - t0


def _pool_batch_worker(
    payload: Tuple[ArchConfig, Sequence[JobKey], str],
) -> List[Tuple[JobKey, SimulationResult, float]]:
    """Top-level (picklable) pool entry: one whole chunk per worker."""
    cfg, keys, engine_profile = payload
    return list(execute_batch(cfg, keys, engine_profile=engine_profile))
