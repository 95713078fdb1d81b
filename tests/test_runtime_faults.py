"""Fault-path coverage for the parallel runtime.

Injectable crashing/hanging pool workers exercise the degradation
layers of :meth:`ParallelRunner._run_pool`, the runtime's one fault
ladder:

1. **pool retry** — a worker that dies mid-batch (``os._exit``) breaks
   the pool (``BrokenProcessPool``); the runner rebuilds a fresh pool
   and retries the remaining jobs (``stats.retries``);
2. **serial fallback after exhausted retries** — a worker that *always*
   dies forces every attempt to break; the runner finishes the batch
   serially in-process;
3. **per-job timeout fallback** — a hanging worker trips the per-job
   timeout (``stats.timeouts``) and the job reruns serially.

Every chunk ships through the one pool entry
(``repro.runtime.parallel._pool_worker``).  With more jobs than
workers the ladder ships multi-job chunks; a chunk-level fault (worker
crash, in-chunk exception) retries the chunk's jobs as singleton
chunks, which then get the same guarantees (``TestBatchedPoolFaults``:
its injected faults fire only on a payload of more than one key).

In every scenario the batch must complete with results **identical to a
clean serial run** — degradation may cost time, never correctness — and
every fallback must leave its cause in ``stats.fallbacks``.

The injection works by monkeypatching ``repro.runtime.parallel.
_pool_worker`` before the pool forks (fork start method copies the
patched module state into workers), with cross-process coordination
through sentinel files.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import DEFAULT_CONFIG
from repro.runtime import JobKey, ParallelRunner, RuntimeOptions, config_digest

SCALE = 0.08
CFG_DIGEST = config_digest(DEFAULT_CONFIG)

IS_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"

needs_fork = pytest.mark.skipif(
    not IS_FORK,
    reason="needs the fork start method so the monkeypatched worker "
           "(and its sentinel path) reach pool workers",
)

#: Sentinel path the forked workers consult; set by each test before
#: the pool forks (fork copies this module global into the workers).
_SENTINEL = None


def _crash_once_worker(payload):
    """Kill the worker process hard on first sight of the sentinel.

    The first call creates the sentinel file and ``os._exit``\\ s —
    an unpicklable, uncatchable death that surfaces to the parent as
    ``BrokenProcessPool``.  Every later call (the retry pool) finds the
    sentinel and behaves like the real worker.
    """
    from repro.runtime import parallel as P

    if not os.path.exists(_SENTINEL):
        with open(_SENTINEL, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return P._real_pool_worker_for_tests(payload)


def _always_crash_worker(payload):
    os._exit(1)


def _hanging_worker(payload):
    """Outlive any reasonable per-job timeout, then finish normally.

    The sleep is bounded (not infinite) so pool shutdown terminates;
    the per-job timeout under test is far smaller.
    """
    from repro.runtime import parallel as P

    time.sleep(3.0)
    return P._real_pool_worker_for_tests(payload)


def _crash_once_batch_worker(payload):
    """Multi-job-chunk sibling of :func:`_crash_once_worker`."""
    from repro.runtime import parallel as P

    if len(payload[1]) > 1 and not os.path.exists(_SENTINEL):
        with open(_SENTINEL, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return P._real_pool_worker_for_tests(payload)


def _raising_batch_worker(payload):
    """Fail every multi-job chunk; singleton chunks run for real."""
    from repro.runtime import parallel as P

    if len(payload[1]) > 1:
        raise RuntimeError("injected batch-chunk failure")
    return P._real_pool_worker_for_tests(payload)


def _raising_worker(payload):
    # Module level, so it pickles into the pool: a local function would
    # fail to pickle and never run in a worker at all.
    raise RuntimeError("injected failure")


def job_matrix():
    return [
        JobKey(bench=bench, scale=SCALE, config_digest=CFG_DIGEST)
        for bench in ("fft", "swim")
    ]


@pytest.fixture(scope="module")
def serial_results():
    """Ground truth: the matrix executed serially, no cache, no pool."""
    runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=1))
    out = runner.run_many(job_matrix())
    assert runner.stats.executed_serial == len(out)
    assert runner.stats.retries == 0
    assert runner.stats.timeouts == 0
    assert runner.stats.worker_failures == 0
    return out


@pytest.fixture()
def patched_worker(monkeypatch, tmp_path):
    """Install an injectable pool worker; yields a setter."""
    from repro.runtime import parallel as P

    # Keep the real worker reachable from inside the replacement
    # (workers import `parallel` fresh state via fork).
    monkeypatch.setattr(
        P, "_real_pool_worker_for_tests", P._pool_worker, raising=False
    )

    def install(worker):
        global _SENTINEL
        _SENTINEL = str(tmp_path / "sentinel")
        monkeypatch.setattr(P, "_pool_worker", worker)

    yield install


class TestPoolRetry:
    @needs_fork
    def test_broken_pool_retries_and_matches_serial(
        self, patched_worker, serial_results
    ):
        patched_worker(_crash_once_worker)
        runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=2))
        keys = job_matrix()
        out = runner.run_many(keys)

        assert runner.stats.retries >= 1, \
            "a mid-batch worker death must trigger a pool retry"
        assert any(
            f.startswith("BrokenProcessPool: ")
            for f in runner.stats.fallbacks
        ), runner.stats.fallbacks
        assert set(out) == set(keys), "no job may be lost to the crash"
        for key in keys:
            assert out[key] == serial_results[key], \
                f"post-retry result differs from clean serial for {key}"
        # After the retry the work actually happened (pool or serial
        # fallback — either is legal, losing jobs is not).
        assert runner.stats.executed == len(keys)

    @needs_fork
    def test_exhausted_retries_fall_back_to_serial(
        self, patched_worker, serial_results
    ):
        patched_worker(_always_crash_worker)
        runner = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=2, retries=1)
        )
        keys = job_matrix()
        out = runner.run_many(keys)

        # Every attempt broke the pool: initial + one retry.
        assert runner.stats.retries == 2
        assert len(runner.stats.fallbacks) == 2
        assert runner.stats.executed_pool == 0
        assert runner.stats.executed_serial == len(keys)
        assert set(out) == set(keys)
        for key in keys:
            assert out[key] == serial_results[key]


class TestTimeoutFallback:
    @needs_fork
    def test_hanging_job_times_out_and_reruns_serially(
        self, patched_worker, serial_results
    ):
        patched_worker(_hanging_worker)
        runner = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=2, timeout=0.2)
        )
        keys = job_matrix()
        out = runner.run_many(keys)

        assert runner.stats.timeouts >= 1, \
            "a hanging worker must trip the per-job timeout"
        assert runner.stats.fallbacks.count(
            "TimeoutError: no result within 0.2s"
        ) == runner.stats.timeouts
        assert runner.stats.executed_serial >= runner.stats.timeouts
        assert set(out) == set(keys)
        for key in keys:
            assert out[key] == serial_results[key]


def batch_matrix():
    """More jobs than workers, so ``jobs=2`` takes the batched path."""
    return [
        JobKey(bench=bench, scale=scale, config_digest=CFG_DIGEST)
        for bench in ("fft", "swim")
        for scale in (SCALE, 0.09)
    ]


@pytest.fixture(scope="module")
def batch_serial_results():
    runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=1))
    return runner.run_many(batch_matrix())


class TestBatchedPoolFaults:
    """Faults in a multi-job chunk degrade its jobs to singleton
    chunks — results stay identical to clean serial."""

    @needs_fork
    def test_chunk_worker_crash_recovers_per_unit(
        self, patched_worker, batch_serial_results
    ):
        patched_worker(_crash_once_batch_worker)
        runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=2))
        keys = batch_matrix()
        out = runner.run_many(keys)

        assert runner.stats.retries >= 1, \
            "a chunk-worker death must register as a pool retry"
        assert set(out) == set(keys), "no job may be lost to the crash"
        for key in keys:
            assert out[key] == batch_serial_results[key], \
                f"post-crash result differs from clean serial for {key}"

    @needs_fork
    def test_chunk_exception_degrades_chunk_to_per_unit(
        self, patched_worker, batch_serial_results
    ):
        patched_worker(_raising_batch_worker)
        runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=2))
        keys = batch_matrix()
        out = runner.run_many(keys)

        assert runner.stats.worker_failures >= 1, \
            "an in-chunk exception must be counted per failed chunk"
        assert runner.stats.fallbacks == [
            "RuntimeError: injected batch-chunk failure"
        ] * runner.stats.worker_failures
        assert runner.stats.retries == 0, \
            "an in-chunk exception must not be treated as a pool crash"
        # The singleton chunks (real work past the injected fault) did
        # every job.
        assert runner.stats.executed_pool == len(keys)
        assert set(out) == set(keys)
        for key in keys:
            assert out[key] == batch_serial_results[key]


class TestWorkerExceptionCounters:
    @needs_fork
    def test_worker_exception_counted_and_isolated(
        self, patched_worker, serial_results, monkeypatch
    ):
        patched_worker(_raising_worker)
        runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=2))
        keys = job_matrix()
        out = runner.run_many(keys)

        assert runner.stats.worker_failures == len(keys)
        assert runner.stats.fallbacks == [
            "RuntimeError: injected failure"
        ] * len(keys)
        assert "2x RuntimeError: injected failure" in runner.stats.render()
        assert runner.stats.retries == 0, \
            "an in-worker exception must not be treated as a pool crash"
        assert runner.stats.executed_serial == len(keys)
        for key in keys:
            assert out[key] == serial_results[key]


#: A process running a two-worker pool over more work than it can
#: finish before the test kills it.
ORPHAN_SCRIPT = """
from repro.config import DEFAULT_CONFIG
from repro.runtime import JobKey, ParallelRunner, RuntimeOptions, config_digest

digest = config_digest(DEFAULT_CONFIG)
keys = [
    JobKey(bench=b, scale=s, config_digest=digest)
    for b in ("fft", "swim", "md", "ocean", "lu", "barnes")
    for s in (0.9, 1.0)
]
ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=2)).run_many(keys)
"""


def _proc_stat(pid: int):
    """``(state, ppid)`` of a live pid from ``/proc``, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _descendants(pid: int) -> list:
    children: dict = {}
    for entry in os.listdir("/proc"):
        stat = _proc_stat(int(entry)) if entry.isdigit() else None
        if stat is not None:
            children.setdefault(stat[1], []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_pool_workers_exit_when_their_parent_is_killed():
    """SIGKILL a process inside ``run_many`` with ``jobs=2``: its pool
    workers must not outlive it (re-parented, they would idle forever
    and hold every pipe they inherited open)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SCRIPT],
        cwd=str(Path(__file__).resolve().parent.parent), env=env,
    )
    workers: list = []
    try:
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            workers = _descendants(proc.pid)
            if len(workers) >= 2:
                break
            time.sleep(0.02)
        assert proc.poll() is None, "the pool finished before the kill"
        assert len(workers) >= 2, workers
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.time() + 10
        while time.time() < deadline and any(map(_running, workers)):
            time.sleep(0.1)
        assert not [w for w in workers if _running(w)], \
            "pool workers outlived their killed parent"
    finally:
        if proc.poll() is None:
            proc.kill()
        for w in workers:
            if _running(w):
                os.kill(w, signal.SIGKILL)
