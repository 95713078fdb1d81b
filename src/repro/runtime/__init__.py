"""repro.runtime — parallel experiment engine with a persistent cache.

Public surface:

* :class:`~repro.runtime.keys.JobKey` / :func:`~repro.runtime.keys.job_key`
  / :func:`~repro.runtime.keys.config_digest` — canonical job identity
  (and its one builder) shared by the in-memory, on-disk, and
  process-pool layers;
* :class:`~repro.runtime.cache.ResultCache` /
  :func:`~repro.runtime.cache.default_cache_dir` — the content-addressed
  pickle store (corruption-tolerant, atomic writes);
* :class:`~repro.runtime.parallel.ParallelRunner` /
  :class:`~repro.runtime.parallel.RuntimeOptions` /
  :class:`~repro.runtime.parallel.RunnerStats` — the engine itself.

Determinism contract: for a fixed ``(ArchConfig, JobKey)``, serial
execution, pooled execution, and a cache hit all yield equal
:class:`~repro.arch.simulator.SimulationResult`s (pinned by
``tests/test_runtime_parallel.py`` and ``tests/test_golden_headline.py``).
"""

from repro.runtime.backoff import backoff_delay
from repro.runtime.cache import (
    CACHE_DIR_ENV,
    NullCache,
    ResultCache,
    default_cache_dir,
)
from repro.runtime.keys import (
    CACHE_SCHEMA_VERSION,
    JobKey,
    canonical,
    config_digest,
    digest_of,
    job_key,
)
from repro.runtime.parallel import (
    ParallelRunner,
    RunnerStats,
    RuntimeOptions,
    execute_job,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "JobKey",
    "NullCache",
    "ParallelRunner",
    "ResultCache",
    "RunnerStats",
    "RuntimeOptions",
    "backoff_delay",
    "canonical",
    "config_digest",
    "default_cache_dir",
    "digest_of",
    "execute_job",
    "job_key",
]
