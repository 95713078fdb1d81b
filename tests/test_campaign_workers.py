"""Multi-worker campaign execution: the crash-and-race harness.

The claim queue (``claims.sqlite``) turns a campaign directory into a
shared work pool.  This suite pins its contract from three directions:

* **protocol** — :class:`TestClaimQueue` drives the lease state machine
  in-process with a fake clock: atomic claims, owner-guarded
  heartbeats, exactly-once completion (a worker whose lease was
  reclaimed must *never* journal), retry backoff, reopening failed
  units, and a writer killed inside ``complete`` leaving neither the
  claim row change nor its journal event;
* **real processes** — ``slow``-marked tests spawn actual workers,
  SIGKILL one mid-flight, leave one hung on a stale lease, and assert
  the survivors drain the queue with no unit double-done, lost, or
  re-simulated against a warm cache — and that a 3-worker run renders
  ``summary.json`` / ``report.txt`` byte-identical to a single-process
  run of the same spec.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import FakeClock, done_events

from repro.campaign import (
    CLAIMS_NAME,
    CampaignError,
    CampaignRunner,
    ClaimQueue,
    QueueError,
    RunRegistry,
    SweepSpec,
)
from repro.campaign.queue import STORE_VERSION
from repro.config import DEFAULT_CONFIG
from repro.runtime import RuntimeOptions
from repro.runtime.cache import ResultCache

SCALE = 0.08

SPEC2 = dict(name="mw", benchmarks=("fft",), schemes=("oracle",),
             scales=(SCALE,))
SPEC6 = dict(name="mw6", benchmarks=("fft", "swim"),
             schemes=("oracle", "algorithm-1"), scales=(SCALE,))


def _dead_pid() -> int:
    """A pid that provably does not exist right now."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _opts(tmp_path, **kw) -> RuntimeOptions:
    return RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache"), **kw)


# ======================================================================
# the lease protocol, in-process with a fake clock
# ======================================================================

class TestClaimQueue:
    UNITS = ["u1", "u2", "u3"]

    def _queue(self, tmp_path, clock, worker_id="w1") -> ClaimQueue:
        return ClaimQueue(
            tmp_path / CLAIMS_NAME, worker_id=worker_id, clock=clock,
        )

    def test_populate_is_idempotent_and_ordered(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        assert q.populate(self.UNITS) == 3
        assert q.populate(self.UNITS) == 0
        assert q.counts().open == 3
        claimed = q.claim(3, lease=60)
        assert [c.unit_id for c in claimed] == self.UNITS
        assert all(c.attempt == 1 for c in claimed)

    def test_claim_skips_own_inflight_units(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(self.UNITS)
        assert len(q.claim(3, lease=60)) == 3
        assert q.claim(3, lease=60) == []
        assert q.counts().claimed == 3

    def test_live_lease_blocks_until_expiry(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1")
        q2 = self._queue(tmp_path, clock, "w2")
        q1.populate(["u1"])
        (c1,) = q1.claim(1, lease=60)
        # w1 is this very process: its pid is alive, its lease is
        # live — w2 must not steal the unit.
        assert q2.claim(1, lease=60) == []
        # A hung worker heartbeats nothing; once the lease lapses the
        # unit goes back to the pool, attempt count advancing.
        clock.advance(61)
        (c2,) = q2.claim(1, lease=60)
        assert c2.unit_id == c1.unit_id and c2.attempt == 2

    def test_dead_owner_reclaimed_before_lease_expiry(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1")
        q2 = self._queue(tmp_path, clock, "w2")
        q1.populate(["u1"])
        q1.claim(1, lease=3600)
        q1._db.execute(
            "UPDATE units SET owner_pid=? WHERE status='claimed'",
            (_dead_pid(),),
        )
        clock.advance(1)  # far inside the lease
        (c2,) = q2.claim(1, lease=60)
        assert c2.unit_id == "u1"

    def test_heartbeat_is_owner_guarded(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1")
        q2 = self._queue(tmp_path, clock, "w2")
        q1.populate(["u1"])
        q1.claim(1, lease=60)
        assert q2.heartbeat(["u1"], lease=9999) == 0
        clock.advance(50)
        assert q1.heartbeat(["u1"], lease=60) == 1
        clock.advance(50)  # would be past the original lease
        assert q2.claim(1, lease=60) == []
        clock.advance(50)  # now past the renewed one
        assert len(q2.claim(1, lease=60)) == 1
        assert q1.heartbeat(["u1"], lease=60) == 0

    def test_complete_is_exactly_once(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1")
        q2 = self._queue(tmp_path, clock, "w2")
        journal = q1.manifest
        q1.populate(["u1"])
        q1.claim(1, lease=10)
        clock.advance(11)
        q2.claim(1, lease=60)
        assert q2.complete("u1", "d2", attempt=2, session=2)
        # w1 lost its lease mid-run: its complete must refuse AND must
        # not journal — the exactly-once guarantee.
        assert not q1.complete("u1", "d1", attempt=1, session=1)
        st = journal.state().unit("u1")
        assert st.done and st.attempts == 1
        assert (st.digest, st.session) == ("d2", 2)
        assert q1.counts().done == 1
        assert q1.rows()[0]["digest"] == "d2"

    def test_fail_retries_with_backoff_then_terminal(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(["u1"])
        (c,) = q.claim(1, lease=60)
        assert c.attempt == 1
        assert q.fail("u1", "boom", max_attempts=2, backoff=30) == "retry"
        assert q.counts().open == 1
        assert q.claim(1, lease=60) == []  # still inside the backoff
        clock.advance(31)
        (c,) = q.claim(1, lease=60)
        assert c.attempt == 2
        assert q.fail("u1", "boom2", max_attempts=2) == "failed"
        assert q.counts().failed == 1
        assert q.rows()[0]["error"] == "boom2"
        # Failing a unit we do not own reports the lost lease.
        assert q.fail("u1", "zombie", max_attempts=2) == "lost"

    def test_fail_journal_commits_with_the_row(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(["u1"])
        q.claim(1, lease=60)
        q.fail("u1", "boom", max_attempts=3, attempt=1, session=1)
        st = q.manifest.state().unit("u1")
        assert (st.status, st.error, st.attempts) == ("failed", "boom", 1)

    def test_complete_and_journal_commit_together(self, tmp_path):
        """A writer killed inside ``complete``, after its journal
        insert and before the commit, leaves neither the ``done`` row
        nor the event: the claim is still the dead writer's, and the
        next claimer completes and journals the unit exactly once."""
        q = ClaimQueue(tmp_path / CLAIMS_NAME)
        q.populate(["u1"])
        script = (
            "import os, sys\n"
            "from repro.campaign import ClaimQueue, manifest as M\n"
            "orig = M.Manifest.record_done\n"
            "def die(self, *a, **k):\n"
            "    orig(self, *a, **k)\n"
            "    os._exit(9)\n"
            "M.Manifest.record_done = die\n"
            "q = ClaimQueue(sys.argv[1])\n"
            "(cu,) = q.claim(1, lease=3600)\n"
            "q.complete(cu.unit_id, 'd-dead', attempt=cu.attempt)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / CLAIMS_NAME)],
            cwd=str(Path(__file__).resolve().parent.parent), env=env,
            timeout=60,
        )
        assert proc.returncode == 9
        (row,) = q.rows()
        assert row["status"] == "claimed" and row["digest"] is None
        assert q.manifest.state().units == {}
        assert done_events(tmp_path / CLAIMS_NAME) == {}
        # The dead owner's claim is reclaimed at once (same host, pid
        # gone) and completes exactly once.
        (cu,) = q.claim(1, lease=60)
        assert cu.attempt == 2
        assert q.complete("u1", "d-live", attempt=cu.attempt)
        assert done_events(tmp_path / CLAIMS_NAME) == {"u1": 1}
        q.close()

    def test_reopen_failed(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(["u1", "u2"])
        q.claim(2, lease=60)
        q.fail("u1", "boom", max_attempts=1, attempt=1)
        q.complete("u2", "d2")
        assert q.counts().failed == 1
        assert q.reopen_failed() == 1
        assert q.reopen_failed() == 0
        counts = q.counts()
        assert (counts.open, counts.done, counts.failed) == (1, 1, 0)
        (c,) = q.claim(1, lease=60)
        assert (c.unit_id, c.attempt) == ("u1", 1)  # fresh budget
        # The journal keeps the failed attempt: the fold still counts it.
        assert q.manifest.state().unit("u1").attempts == 1

    def test_spec_digest_guard(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(["u1"], spec_digest="aaa")
        q.populate(["u1"], spec_digest="aaa")  # same spec: fine
        with pytest.raises(QueueError, match="spec digest"):
            q.populate(["u1"], spec_digest="bbb")

    def test_concurrent_creation_never_refuses(self, tmp_path):
        """Many openers racing to create one new store: each sees a
        complete, stamped store (creation and stamp are one
        transaction), none is refused as a store without a stamp."""
        path = tmp_path / CLAIMS_NAME
        n = 2 * (os.cpu_count() or 2) + 2
        barrier = threading.Barrier(n)
        errors, versions = [], []

        def open_store():
            barrier.wait(timeout=30)
            try:
                q = ClaimQueue(path)
                versions.append(
                    q._db.execute("PRAGMA user_version").fetchone()[0]
                )
                q.populate(["u1"])
                q.close()
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [threading.Thread(target=open_store) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert versions == [STORE_VERSION] * n

    def test_counts_and_live_leases(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(self.UNITS)
        q.claim(1, lease=60)
        q.rows()  # smoke: the debug view never throws
        counts = q.counts()
        assert (counts.open, counts.claimed) == (2, 1)
        assert counts.active == 3 and counts.total == 3
        assert q.live_leases() == 1  # our own live pid
        clock.advance(61)
        # The lease lapsed but the owner pid (us) is alive on this
        # host, so the lease still reads as live for gc purposes...
        assert q.live_leases() == 1
        q._db.execute(
            "UPDATE units SET owner_pid=? WHERE status='claimed'",
            (_dead_pid(),),
        )
        assert q.live_leases() == 0


# ======================================================================
# invariants of the queue-backed runner (PR-5 carryovers)
# ======================================================================

class TestQueueRunnerInvariants:
    def test_digest_parity_queue_manifest_jobkey_cache(self, tmp_path):
        """One namespace, never forked: the digest the queue rows and
        the journal record is the JobKey digest, and the cache holds an
        entry for it (so any interactive driver is a warm hit)."""
        spec = SweepSpec(**SPEC2)
        root = tmp_path / "runs"
        result = CampaignRunner(
            spec, root=root, options=_opts(tmp_path),
        ).run()
        assert result.ok
        cdir = root / spec.campaign_id
        cache = ResultCache(tmp_path / "cache")
        q = ClaimQueue(cdir / CLAIMS_NAME)
        state = q.manifest.state()
        by_row = {row["unit_id"]: row for row in q.rows()}
        q.close()
        for unit in spec.expand():
            expect = unit.job_key(DEFAULT_CONFIG).cache_digest()
            assert state.units[unit.unit_id].digest == expect
            assert by_row[unit.unit_id]["digest"] == expect
            assert cache.path(expect).exists()

    def test_workers_require_directory_and_cache(self, tmp_path):
        spec = SweepSpec(**SPEC2)
        with pytest.raises(CampaignError, match="on-disk"):
            CampaignRunner(spec, options=_opts(tmp_path)).run(workers=2)
        with pytest.raises(CampaignError, match="cache"):
            CampaignRunner(
                spec, root=tmp_path / "runs",
                options=RuntimeOptions(jobs=1),
            ).run(workers=2)
        with pytest.raises(CampaignError, match="trace"):
            CampaignRunner(
                spec, root=tmp_path / "runs",
                options=_opts(
                    tmp_path, trace_events=str(tmp_path / "t.jsonl")
                ),
            ).run(workers=2)

    def test_attach_worker_requires_directory_and_cache(self, tmp_path):
        spec = SweepSpec(**SPEC2)
        with pytest.raises(CampaignError, match="on-disk"):
            CampaignRunner(spec, options=_opts(tmp_path)).attach_worker()
        with pytest.raises(CampaignError, match="cache"):
            CampaignRunner(
                spec, root=tmp_path / "runs",
                options=RuntimeOptions(jobs=1),
            ).attach_worker()

    def test_attach_worker_finalizes_idempotently(self, tmp_path):
        """A late worker on a finished campaign does no work and
        re-renders byte-identical artifacts (pure function of results)."""
        spec = SweepSpec(**SPEC2)
        root = tmp_path / "runs"
        CampaignRunner(spec, root=root, options=_opts(tmp_path)).run()
        cdir = root / spec.campaign_id
        summary = (cdir / "summary.json").read_bytes()
        report = (cdir / "report.txt").read_bytes()

        runner = CampaignRunner(
            spec, root=root, options=_opts(tmp_path),
        )
        out = runner.attach_worker(finalize=True)
        assert out.finalized
        assert out.results == {}  # nothing left to claim
        assert runner.stats.executed == 0
        assert (cdir / "summary.json").read_bytes() == summary
        assert (cdir / "report.txt").read_bytes() == report


# ======================================================================
# registry under workers (gc safety, corrupt dirs, concurrent ls)
# ======================================================================

class TestRegistryUnderWorkers:
    def _finished_campaign(self, tmp_path, name="done-camp"):
        spec = SweepSpec(**{**SPEC2, "name": name})
        root = tmp_path / "runs"
        CampaignRunner(spec, root=root, options=_opts(tmp_path)).run()
        return RunRegistry(root), spec

    def test_gc_never_collects_live_lease_campaigns(self, tmp_path):
        registry, spec = self._finished_campaign(tmp_path)
        # A second, in-flight campaign: journal header present, one
        # unit claimed by this (live) process.
        live = registry.root / "live-camp"
        live.mkdir()
        q = ClaimQueue(live / CLAIMS_NAME, worker_id="w")
        q.manifest.write_header("live-camp", "d", 2)
        q.populate(["u1", "u2"])
        q.claim(1, lease=3600)

        assert registry.info("live-camp").status == "running"
        removed = registry.gc(dry_run=True)
        assert "live-camp" not in removed
        assert spec.campaign_id in removed
        # Even an explicit id must not delete a live campaign.
        assert registry.gc(ids=["live-camp"]) == []
        assert live.exists()
        # Once the worker releases its lease, the campaign is fair game.
        q.complete("u1", "d1")
        q.close()
        assert "live-camp" in registry.gc(ids=["live-camp"], dry_run=True)

    def test_gc_missing_and_corrupt_dirs_are_not_fatal(self, tmp_path):
        registry, spec = self._finished_campaign(tmp_path)
        assert registry.gc(ids=["no-such-campaign"]) == []
        # A store that cannot be opened as a file at all: status
        # reports corrupt, ls and gc keep working.
        bad = registry.root / "bad-camp"
        (bad / CLAIMS_NAME).mkdir(parents=True)
        info = registry.info("bad-camp")
        assert info.status == "corrupt" and info.error
        ids = [i.campaign_id for i in registry.list()]
        assert "bad-camp" in ids and spec.campaign_id in ids
        assert "bad-camp" not in registry.gc(
            complete_only=True, dry_run=True
        )

    def test_empty_campaign_dir_reports_empty(self, tmp_path):
        registry, _ = self._finished_campaign(tmp_path)
        empty = registry.root / "empty-camp"
        empty.mkdir()
        (empty / CLAIMS_NAME).write_text("")
        assert registry.info("empty-camp").status == "empty"
        assert any(
            i.campaign_id == "empty-camp" for i in registry.list()
        )

    def test_ls_stable_under_concurrent_workers(self, tmp_path):
        registry, spec = self._finished_campaign(tmp_path)
        live = registry.root / "live-camp"
        live.mkdir()
        q = ClaimQueue(live / CLAIMS_NAME, worker_id="w")
        q.manifest.write_header("live-camp", "d", 2)
        q.populate(["u1", "u2"])
        q.claim(1, lease=3600)
        # Two listings while a worker holds a lease agree with each
        # other and show both campaigns with sensible statuses.
        a = {i.campaign_id: i.status for i in registry.list()}
        b = {i.campaign_id: i.status for i in registry.list()}
        assert a == b
        assert a["live-camp"] == "running"
        assert a[spec.campaign_id] == "complete"
        blob = registry.status("live-camp")
        assert blob["queue"]["claimed"] == 1
        assert blob["queue"]["live_leases"] == 1
        q.close()


# ======================================================================
# real worker processes: kill, hang, race (slow)
# ======================================================================

#: Child: one worker attached to an existing campaign, with a journal
#: that naps inside the exactly-once transaction — so a SIGKILL lands
#: either mid-simulation or inside an uncommitted ``complete`` (the row
#: and its event roll back together); either way the unit reruns.
WORKER_SCRIPT = """
import sys, time
from repro.campaign import manifest as M
from repro.campaign import CampaignRunner, SweepSpec
from repro.runtime import RuntimeOptions

_orig = M.Manifest.record_done
def _slow(self, *a, **k):
    _orig(self, *a, **k)
    time.sleep(0.4)
M.Manifest.record_done = _slow

spec = SweepSpec.load(sys.argv[1] + "/" + sys.argv[3] + "/spec.json")
CampaignRunner(
    spec, root=sys.argv[1], campaign_id=sys.argv[3],
    options=RuntimeOptions(jobs=1, cache_dir=sys.argv[2]),
    chunk_size=1,
).attach_worker(poll=0.05)
"""


def _spawn_worker(root, cache, campaign_id):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", WORKER_SCRIPT, str(root), str(cache),
         campaign_id],
        cwd=str(Path(__file__).resolve().parent.parent),
        env=env,
    )


def _prepare_campaign(spec, root, tmp_path):
    """Materialize spec.json + header so workers can attach."""
    runner = CampaignRunner(spec, root=root, options=_opts(tmp_path))
    runner._prepare_dir(runner.dir, resume=False)
    runner.manifest.write_header(
        spec.campaign_id, spec.spec_digest(), len(spec.expand())
    )
    runner.close()


@pytest.mark.slow
class TestWorkerProcesses:
    def test_three_workers_byte_identical_to_single(self, tmp_path):
        """The acceptance bar: same spec, 3 workers vs 1 process —
        identical summary.json/report.txt bytes, every unit journaled
        exactly once, and a pure-cache resume afterwards."""
        spec = SweepSpec(**SPEC6)
        control_root = tmp_path / "runs-control"
        multi_root = tmp_path / "runs-multi"

        control = CampaignRunner(
            spec, root=control_root,
            options=RuntimeOptions(
                jobs=1, cache_dir=str(tmp_path / "cache-control")
            ),
        ).run()
        assert control.ok

        multi_opts = RuntimeOptions(
            jobs=1, cache_dir=str(tmp_path / "cache-multi")
        )
        multi = CampaignRunner(
            spec, root=multi_root, options=multi_opts,
        ).run(workers=3)
        assert multi.ok
        assert len(multi.results) == len(spec.expand())

        name = spec.campaign_id
        assert (multi_root / name / "summary.json").read_bytes() \
            == (control_root / name / "summary.json").read_bytes()
        assert (multi_root / name / "report.txt").read_bytes() \
            == (control_root / name / "report.txt").read_bytes()

        rows = done_events(multi_root / name / CLAIMS_NAME)
        assert all(n == 1 for n in rows.values()), rows
        assert len(rows) == len(spec.expand())

        again = CampaignRunner(
            spec, root=multi_root, options=multi_opts,
        ).run(resume=True)
        assert again.stats.executed == 0, \
            "a multi-worker campaign must resume purely from cache"
        assert (multi_root / name / "summary.json").read_bytes() \
            == (control_root / name / "summary.json").read_bytes()

    def test_sigkill_worker_survivors_drain(self, tmp_path):
        """SIGKILL a real worker mid-flight; a second worker must
        reclaim its units immediately (dead pid — no lease wait) and
        drain the queue with no unit double-done or lost."""
        spec = SweepSpec(**SPEC6)
        root = tmp_path / "runs"
        cache = tmp_path / "cache"
        _prepare_campaign(spec, root, tmp_path)
        name = spec.campaign_id
        store = root / name / CLAIMS_NAME
        total = len(spec.expand())

        victim = _spawn_worker(root, cache, name)
        try:
            deadline = time.time() + 180
            while time.time() < deadline:
                if done_events(store) or victim.poll() is not None:
                    break
                time.sleep(0.02)
            assert victim.poll() is None, \
                "worker finished before the kill could land"
            victim.send_signal(signal.SIGKILL)
        finally:
            victim.wait(timeout=60)

        pre = done_events(store)
        assert 1 <= len(pre) < total

        # The survivor attaches in-process.  The victim's claims are
        # held by a dead pid: with the default 120 s lease, finishing
        # quickly at all proves the dead-owner fast path reclaims them
        # (a lease wait would stall the drain for minutes).
        t0 = time.time()
        runner = CampaignRunner(
            spec, root=root, campaign_id=name,
            options=RuntimeOptions(jobs=1, cache_dir=str(cache)),
        )
        out = runner.attach_worker(poll=0.05, finalize=True)
        assert time.time() - t0 < 100
        assert out.finalized

        rows = done_events(store)
        assert len(rows) == total, "no unit may be lost"
        assert all(n == 1 for n in rows.values()), \
            f"double-done units: {rows}"
        for uid in pre:
            assert uid not in out.results, \
                "journaled units must not be re-run by the survivor"
        q = ClaimQueue(root / name / CLAIMS_NAME)
        counts = q.counts()
        q.close()
        assert counts.done == total and counts.active == 0

        resumed = CampaignRunner(
            spec, root=root, campaign_id=name,
            options=RuntimeOptions(jobs=1, cache_dir=str(cache)),
        ).run(resume=True)
        assert resumed.ok and resumed.stats.executed == 0

    def test_hung_worker_stale_lease_reclaimed(self, tmp_path):
        """A worker that claims and then hangs (no heartbeat, pid very
        much alive) blocks its unit only until the lease expires; the
        healthy worker then reclaims and completes it, and the hung
        worker's late ``complete`` is refused without journaling."""
        spec = SweepSpec(**SPEC2)
        root = tmp_path / "runs"
        _prepare_campaign(spec, root, tmp_path)
        name = spec.campaign_id
        cdir = root / name

        hung = ClaimQueue(cdir / CLAIMS_NAME, worker_id="hung-worker")
        hung.populate(spec.unit_ids(), spec_digest=spec.spec_digest())
        claimed = hung.claim(1, lease=1.0)
        assert len(claimed) == 1
        stuck = claimed[0].unit_id

        runner = CampaignRunner(
            spec, root=root, campaign_id=name, options=_opts(tmp_path),
        )
        out = runner.attach_worker(poll=0.05, finalize=True)
        assert out.finalized
        assert stuck in out.results, \
            "the healthy worker must reclaim the stale lease"

        assert not hung.complete(stuck, "stale")
        assert done_events(cdir / CLAIMS_NAME)[stuck] == 1, \
            "a reclaimed worker must never journal its unit"
        hung.close()

        rows = done_events(cdir / CLAIMS_NAME)
        assert len(rows) == len(spec.expand())
        assert all(n == 1 for n in rows.values())
