"""Parallel experiment engine: fan simulation jobs over a process pool.

The :class:`ParallelRunner` executes :class:`~repro.runtime.keys.JobKey`
jobs with three layers of reuse and a deterministic execution core:

1. an in-memory result table (same-object hits within one process),
2. the persistent content-addressed cache (:mod:`repro.runtime.cache`),
3. actual execution — one serial in-process loop, or chunks fanned out
   over a ``concurrent.futures.ProcessPoolExecutor``.

Because every job is an *independent* simulation (the simulator carries
no cross-run state and uses no global RNG), serial, parallel, and
cache-hit executions produce bit-identical :class:`SimulationResult`s;
``tests/test_runtime_parallel.py`` pins that property.  Trace sharing
needs no executor of its own: :func:`~repro.workloads.tracegen.\
compiled_trace`'s process-wide cache hands every job of a lineup the
same trace object, in the serial loop and inside each pool worker, and
equal compilations get one trace object.

A result is a function of its simulation input — the trace, the
config, the scheme spec, the three collection flags and the engine
profile — and many job keys can name one input (``algorithm-1`` and
``algorithm-2`` wherever Algorithm 2's reuse veto never fires).  The
serial loop runs each input once per runner: a :class:`SimulationMemo`
answers a job whose input already ran, and the job commits that result
under its own key.

Failure handling is one ladder (:meth:`ParallelRunner._run_pool`):

* a multi-job chunk that crashes, times out or raises is retried as
  singleton chunks; a singleton that times out or raises reruns
  in-process;
* a broken pool (``BrokenProcessPool``) is rebuilt up to ``retries``
  times, after which whatever is left runs in-process — the batch
  always completes;
* every fallback appends its cause to ``RunnerStats.fallbacks``;
* ``jobs=1`` (the default) never creates a pool at all;
* a pool worker exits on its own when its parent dies (a SIGKILLed
  parent cannot shut its pool down).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter, OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.engine import OPTIMIZED, check_engine_profile
from repro.arch.simulator import SimulationResult, SystemSimulator
from repro.config import ArchConfig
from repro.runtime.backoff import backoff_delay
from repro.runtime.cache import NullCache, ResultCache
from repro.runtime.keys import JobKey, trace_signature
from repro.schemes import scheme_from_spec
from repro.workloads.tracegen import compiled_trace, trace_serial

#: Pause before rebuilding a crashed process pool (capped exponential,
#: shared schedule with the campaign runner and remote claim client —
#: see :mod:`repro.runtime.backoff`).
POOL_RETRY_BASE = 0.05
POOL_RETRY_CAP = 1.0
#: simulation inputs a runner remembers (tracegen's cache bound)
MEMO_MAX = 128


@dataclass(frozen=True)
class RuntimeOptions:
    """Knobs of the experiment runtime (CLI: ``--jobs`` etc.).

    ``jobs``: 1 = serial (no pool), 0 = auto (``os.cpu_count()``),
    N > 1 = pool of N workers.  ``cache_dir``: None disables the
    persistent cache entirely (``--no-cache``).
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    stats: bool = False
    timeout: Optional[float] = None   #: per-job seconds; None = unbounded
    retries: int = 1                  #: pool re-creations after a crash
    #: JSONL path for the instrumentation bus (``--trace-events``); the
    #: bus is process-local state, so tracing forces serial execution
    trace_events: Optional[str] = None
    #: simulation-engine implementation profile (``--engine-profile``).
    #: A *performance* knob only — all profiles are pinned
    #: cycle-identical by the differential harness, so the profile
    #: deliberately does NOT enter :class:`JobKey` cache keys.
    engine_profile: str = OPTIMIZED

    def __post_init__(self) -> None:
        check_engine_profile(self.engine_profile)

    @property
    def effective_jobs(self) -> int:
        if self.jobs == 1:
            return 1
        if self.jobs <= 0:
            return os.cpu_count() or 1
        return self.jobs

    @property
    def parallel(self) -> bool:
        return self.effective_jobs > 1 and self.trace_events is None


@dataclass
class RunnerStats:
    """Observability counters for one runtime (shared across runners)."""

    mem_hits: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    executed_serial: int = 0
    executed_pool: int = 0
    #: executed jobs whose simulation input had already run in the
    #: same runner: they took that result instead of simulating
    shared: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_failures: int = 0
    #: (job key, wall seconds) per executed job
    job_times: List[Tuple[JobKey, float]] = field(default_factory=list)
    #: resource -> [reservations, busy cycles, stall cycles], aggregated
    #: over every executed (non-cache-hit) job in this runtime
    resource_util: Dict[str, List[int]] = field(default_factory=dict)
    #: why execution degraded, ``"<ExcType>: <message>"`` per fallback: a
    #: pool chunk split into singletons, a job rerun in-process, a
    #: campaign chunk rerun unit by unit
    fallbacks: List[str] = field(default_factory=list)

    @property
    def executed(self) -> int:
        return self.executed_serial + self.executed_pool

    @property
    def hits(self) -> int:
        return self.mem_hits + self.disk_hits

    @property
    def misses(self) -> int:
        return self.executed

    @property
    def total_job_seconds(self) -> float:
        return sum(t for _, t in self.job_times)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def render(self, top: int = 5) -> str:
        lines = [
            "runtime stats:",
            f"  cache: {self.mem_hits} memory hits, {self.disk_hits} disk "
            f"hits, {self.misses} misses ({100 * self.hit_rate():.1f}% hit "
            f"rate), {self.disk_writes} disk writes",
            f"  jobs:  {self.executed_serial} serial + {self.executed_pool} "
            f"pooled = {self.executed} executed, {self.shared} shared "
            f"({self.total_job_seconds:.2f}s simulated wall time)",
            f"  fault: {self.retries} pool retries, {self.timeouts} "
            f"timeouts, {self.worker_failures} worker failures",
        ]
        if self.fallbacks:
            lines.append("  fallbacks (why execution degraded):")
            lines.extend(
                f"    {n}x {cause}"
                for cause, n in Counter(self.fallbacks).most_common()
            )
        slowest = sorted(self.job_times, key=lambda jt: -jt[1])[:top]
        if slowest:
            lines.append("  slowest jobs:")
            lines.extend(
                f"    {t:8.3f}s  {key.describe()}" for key, t in slowest
            )
        hottest = sorted(
            self.resource_util.items(), key=lambda nu: -nu[1][2]
        )[:top]
        if hottest:
            lines.append("  most contended resources (by stall cycles):")
            lines.extend(
                f"    {name:<16s} {res:6d} reservations, {busy:8d} busy, "
                f"{stall:8d} stalled"
                for name, (res, busy, stall) in hottest
            )
        return "\n".join(lines)

    def record_resources(self, util: Dict[str, Tuple[int, int, int]]) -> None:
        """Fold one simulation's per-resource counters into the totals."""
        for name, counts in util.items():
            acc = self.resource_util.setdefault(name, [0, 0, 0])
            for i, v in enumerate(counts):
                acc[i] += v

    def record_fallback(self, exc: BaseException) -> None:
        """Keep the cause of one fallback (see :attr:`fallbacks`)."""
        self.fallbacks.append(f"{type(exc).__name__}: {exc}")


# ======================================================================
# deterministic execution core (shared by serial path and pool workers)
# ======================================================================

class SimulationMemo:
    """Bounded LRU from a simulation input to its result.

    The input is (trace, config, scheme spec, the three collection
    flags, engine profile), with the trace named by its
    :func:`~repro.workloads.tracegen.trace_serial`: no other trace ever
    gets that number, and the memo keeps no trace alive after tracegen
    lets go of it.  Results are shared by reference: nothing outside
    ``arch/`` writes into a result.
    """

    def __init__(self) -> None:
        #: lookups answered
        self.hits = 0
        self._results: "OrderedDict[tuple, SimulationResult]" = OrderedDict()

    def lookup(self, key: tuple) -> Optional[SimulationResult]:
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
            self.hits += 1
        return result

    def store(self, key: tuple, result: SimulationResult) -> None:
        if len(self._results) >= MEMO_MAX:
            self._results.popitem(last=False)
        self._results[key] = result


def execute_job(
    cfg: ArchConfig,
    key: JobKey,
    scheme=None,
    event_bus=None,
    engine_profile: str = OPTIMIZED,
    memo: Optional[SimulationMemo] = None,
) -> SimulationResult:
    """Compile, lower, and simulate one job.  Pure and deterministic:
    the result depends only on ``(cfg, key)``; an attached ``event_bus``
    observes the run without changing it, and ``engine_profile`` selects
    an implementation whose results are pinned identical.  Jobs that
    share a trace signature share the trace object through
    ``compiled_trace``'s cache.

    With a ``memo``, a job whose simulation input has already run
    returns that run's result without preparing or simulating.  The
    scheme spec stands for the scheme, as it does in the disk cache's
    key: ``scheme_from_spec(s.spec())`` rebuilds an identical scheme,
    ``prepare`` reads only the config and the trace, and every scheme
    resets when a run starts."""
    if scheme is None and key.scheme_spec is not None:
        scheme = scheme_from_spec(key.scheme_spec)
    trace, _ = compiled_trace(
        key.bench, key.variant, key.scale, cfg,
        tunables=key.tunables, **dict(key.trace_opts)
    )
    if memo is not None:
        run_key = (
            trace_serial(trace), cfg, key.scheme_spec, key.profile_windows,
            key.collect_window_series, key.collect_pc_stats,
            engine_profile,
        )
        shared = memo.lookup(run_key)
        if shared is not None:
            return shared
    if scheme is not None:
        # Pre-run hook (profile-guided schemes run their warm-up here).
        # Sitting on this seam covers every execution path — serial
        # and pool worker — so preparation can never fork
        # serial/parallel determinism.
        scheme.prepare(cfg, trace)
    sim = SystemSimulator(
        cfg,
        scheme,
        profile_windows=key.profile_windows,
        collect_window_series=key.collect_window_series,
        collect_pc_stats=key.collect_pc_stats,
        engine_profile=engine_profile,
        event_bus=event_bus,
    )
    result = sim.run(trace)
    if memo is not None:
        memo.store(run_key, result)
    return result


def _exit_with_parent() -> None:
    """Pool-worker initializer: a daemon thread exits the worker once
    its parent dies (re-parented, it would wait for work forever and
    hold open every pipe it inherited)."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="repro-orphan-watch",
                     daemon=True).start()


def _pool_worker(
    payload: Tuple[ArchConfig, Sequence[JobKey], str],
) -> List[Tuple[JobKey, SimulationResult, float]]:
    """Top-level (picklable) pool entry: execute one chunk of keys in
    order; returns ``(key, result, wall seconds)`` per key."""
    cfg, keys, engine_profile = payload
    out = []
    for key in keys:
        t0 = time.perf_counter()
        result = execute_job(cfg, key, engine_profile=engine_profile)
        out.append((key, result, time.perf_counter() - t0))
    return out


# ======================================================================
# the engine
# ======================================================================

class ParallelRunner:
    """Execute jobs for one ``(cfg, scale)`` with caching + fan-out."""

    def __init__(
        self,
        cfg: ArchConfig,
        options: Optional[RuntimeOptions] = None,
        stats: Optional[RunnerStats] = None,
    ):
        self.cfg = cfg
        self.options = options or RuntimeOptions()
        self.stats = stats if stats is not None else RunnerStats()
        self.cache = (
            ResultCache(self.options.cache_dir)
            if self.options.cache_dir
            else NullCache()
        )
        self._memory: Dict[JobKey, SimulationResult] = {}
        #: one run per simulation input (serial execution only)
        self._memo = SimulationMemo()
        #: streaming event sink behind ``--trace-events``; tracing
        #: implies serial execution (see RuntimeOptions.parallel) and
        #: bypasses disk-cache *reads* (a replayed result emits nothing)
        self.trace_writer = None
        if self.options.trace_events:
            from repro.arch.events import TraceWriter

            self.trace_writer = TraceWriter(self.options.trace_events)

    def close(self) -> None:
        """Flush and close the event trace, if one is attached."""
        if self.trace_writer is not None:
            self.trace_writer.close()
            self.trace_writer = None

    # ------------------------------------------------------------------
    def _progress(self, done: int, total: int, key: JobKey, dt: float,
                  origin: str) -> None:
        if not self.options.stats:
            return
        s = self.stats
        print(
            f"[repro.runtime] {done}/{total} {origin:<6} {dt:7.3f}s "
            f"(hits {s.hits} / misses {s.misses})  {key.describe()}",
            file=sys.stderr,
        )

    def _resolve_cached(self, key: JobKey) -> Optional[SimulationResult]:
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.mem_hits += 1
            return hit
        if self.trace_writer is not None:
            # A disk hit would skip the simulation and therefore emit no
            # events; while tracing, only same-process memory hits (whose
            # events are already in the file) short-circuit.
            return None
        disk = self.cache.load(key.cache_digest())
        if disk is not None:
            self.stats.disk_hits += 1
            self._memory[key] = disk
            return disk
        return None

    def _commit(self, key: JobKey, result: SimulationResult) -> None:
        self._memory[key] = result
        self.stats.record_resources(result.stats.resource_util)
        if self.cache.store(key.cache_digest(), result):
            self.stats.disk_writes += 1

    def _execute_serial(self, key: JobKey, scheme=None) -> SimulationResult:
        bus = None
        memo = self._memo
        if self.trace_writer is not None:
            bus = self.trace_writer.bus
            bus.context = key.describe()
            # A shared job would emit no events (the same reason
            # _resolve_cached skips disk reads while tracing).
            memo = None
        hits = self._memo.hits
        t0 = time.perf_counter()
        result = execute_job(
            self.cfg, key, scheme, event_bus=bus,
            engine_profile=self.options.engine_profile, memo=memo,
        )
        dt = time.perf_counter() - t0
        self.stats.executed_serial += 1
        self.stats.shared += self._memo.hits - hits
        self.stats.job_times.append((key, dt))
        self._commit(key, result)
        return result

    def _run_serial(self, keys: Sequence[JobKey], out: Dict) -> None:
        """The one in-process loop: execute ``keys`` into ``out``."""
        for i, key in enumerate(keys):
            out[key] = self._execute_serial(key)
            self._progress(i + 1, len(keys), key,
                           self.stats.job_times[-1][1], "serial")

    # ------------------------------------------------------------------
    def run(self, key: JobKey, scheme=None) -> SimulationResult:
        """One job: memory -> disk -> in-process execution.

        ``scheme`` optionally supplies an already-built scheme instance
        (lets callers run unregistered/custom schemes serially; pooled
        execution always rebuilds from ``key.scheme_spec``).
        """
        hit = self._resolve_cached(key)
        if hit is not None:
            return hit
        result = self._execute_serial(key, scheme)
        self._progress(1, 1, key, self.stats.job_times[-1][1], "serial")
        return result

    def run_many(self, keys: Sequence[JobKey]) -> Dict[JobKey, SimulationResult]:
        """A batch of jobs; fans cache misses out over the pool."""
        unique: List[JobKey] = []
        seen = set()
        for k in keys:
            if k not in seen:
                seen.add(k)
                unique.append(k)
        out: Dict[JobKey, SimulationResult] = {}
        misses: List[JobKey] = []
        for k in unique:
            hit = self._resolve_cached(k)
            if hit is not None:
                out[k] = hit
            else:
                misses.append(k)
        if not self.options.parallel or len(misses) < 2:
            self._run_serial(misses, out)
        else:
            self._run_pool(misses, out)
        return out

    # ------------------------------------------------------------------
    def _run_pool(self, misses: List[JobKey], out: Dict) -> None:
        """Execute ``misses`` over a process pool into ``out``.

        Jobs sharing a trace signature ship together, one chunk per
        worker.  The fault ladder: a multi-job chunk that crashes,
        times out or raises is retried as singleton chunks; a singleton
        that times out or raises reruns in-process (where a genuine job
        error surfaces with its traceback); a broken pool is rebuilt up
        to ``retries`` times, after which whatever is left runs
        in-process.  Every step down records its cause.
        """
        opts = self.options
        done = 0
        groups: Dict[tuple, List[JobKey]] = {}
        for k in misses:
            groups.setdefault(trace_signature(self.cfg, k), []).append(k)
        ordered = [k for g in groups.values() for k in g]
        size = -(-len(ordered) // opts.effective_jobs)
        chunks = [ordered[i:i + size] for i in range(0, len(ordered), size)]
        in_process: List[JobKey] = []
        rebuilds = 0
        while chunks:
            singles: List[List[JobKey]] = []
            try:
                workers = min(opts.effective_jobs, len(chunks))
                with ProcessPoolExecutor(
                    max_workers=workers, initializer=_exit_with_parent,
                ) as pool:
                    profile = opts.engine_profile
                    futures = [
                        (c, pool.submit(_pool_worker, (self.cfg, c, profile)))
                        for c in chunks
                    ]
                    for chunk, fut in futures:
                        timeout = (
                            None if opts.timeout is None
                            else opts.timeout * len(chunk)
                        )
                        try:
                            items = fut.result(timeout=timeout)
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:
                            if isinstance(exc, FutureTimeoutError):
                                self.stats.timeouts += 1
                                fut.cancel()
                                exc = FutureTimeoutError(
                                    f"no result within {timeout:g}s"
                                )
                            else:
                                self.stats.worker_failures += 1
                            self.stats.record_fallback(exc)
                            if len(chunk) > 1:
                                singles.extend([k] for k in chunk)
                            else:
                                in_process.extend(chunk)
                            continue
                        for key, result, dt in items:
                            done += 1
                            self.stats.executed_pool += 1
                            self.stats.job_times.append((key, dt))
                            self._commit(key, result)
                            out[key] = result
                            self._progress(done, len(misses), key, dt,
                                           "pool")
                chunks = singles
            except (BrokenProcessPool, OSError) as exc:
                # A worker died (or the pool could not be [re]built):
                # retry everything unfinished as singletons on a fresh
                # pool, after a short pause — a host-level cause (OOM
                # killer, fork pressure) needs a beat to clear.
                self.stats.retries += 1
                self.stats.record_fallback(exc)
                rebuilds += 1
                left = [
                    k for chunk in chunks for k in chunk
                    if k not in out and k not in in_process
                ]
                if rebuilds > opts.retries:
                    in_process.extend(left)
                    chunks = []
                else:
                    chunks = [[k] for k in left]
                    time.sleep(backoff_delay(
                        rebuilds, base=POOL_RETRY_BASE, cap=POOL_RETRY_CAP
                    ))
        self._run_serial(in_process, out)
