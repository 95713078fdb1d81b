"""The network claim backend under deterministic fault injection.

PR 6 proved the claim queue's exactly-once contract for workers that
share a filesystem; this suite pins the same contract across a lossy
wire.  The harness is :class:`FaultyTransport`: a deterministic
schedule of the four canonical network failures (drop / delay /
duplicate / torn-response) threaded *under* the retrying
:class:`RemoteClaimQueue`, so every test runs against the exact
at-least-once delivery semantics a real flaky link produces.

Layers, bottom up:

* **backoff schedule** — hypothesis properties of the one shared
  :func:`backoff_delay` (monotone, capped, jitter within bounds), the
  schedule both :class:`ParallelRunner`'s pool retry and
  :class:`RemoteClaimQueue` draw from;
* **transports** — the harness itself: scripted/seeded plans, each
  fault verdict's delivery semantics, JSON wire-fidelity of
  :class:`LocalTransport`;
* **wire protocol** — version/digest handshake, idempotency-token
  replay, the result-shipping admissibility rule (``complete`` refused
  for an unshipped digest), and the critical torn-``complete`` window:
  a retried ``complete`` whose first response was lost must journal
  exactly once;
* **exactly-once property** — hypothesis drives whole campaigns under
  arbitrary fault schedules: any schedule must yield exactly one
  ``done`` journal event per unit and artifacts byte-identical to the
  no-fault control;
* **partition** — a worker that loses connectivity mid-lease: the
  reclaiming winner journals, the loser's late ``complete`` is refused
  unjournaled;
* **server shutdown** — the server closes only once every claiming
  worker has read the drain's final ``counts`` or outlived its lease
  in silence;
* **two real hosts** (``slow``) — server + two worker *processes* with
  disjoint cache dirs over localhost HTTP, one SIGKILLed mid-drain;
  the survivor finishes and ``summary.json``/``report.txt`` come out
  byte-identical to a single-process run.
"""

import base64
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from conftest import done_events
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CLAIMS_NAME,
    CampaignRunner,
    ClaimQueue,
    ClaimServer,
    FaultPlan,
    FaultyTransport,
    HttpTransport,
    LocalTransport,
    QueueError,
    RemoteClaimQueue,
    RemoteProtocolError,
    RemoteUnavailable,
    SweepSpec,
    TransportError,
)
from repro.campaign.remote import RELEASE_GRACE
from repro.campaign.transport import FAULT_KINDS, WIRE_VERSION
from repro.config import DEFAULT_CONFIG
from repro.runtime import RuntimeOptions
from repro.runtime.backoff import backoff_delay
from repro.runtime.cache import ResultCache

SCALE = 0.08

SPEC2 = dict(name="rm2", benchmarks=("fft",), schemes=("oracle",),
             scales=(SCALE,))
SPEC6 = dict(name="rm6", benchmarks=("fft", "swim"),
             schemes=("oracle", "algorithm-1"), scales=(SCALE,))


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
def _make_campaign(root: Path, spec: SweepSpec) -> Path:
    """Materialize the campaign directory a server fronts."""
    cdir = root / spec.campaign_id
    cdir.mkdir(parents=True, exist_ok=True)
    (cdir / "spec.json").write_text(json.dumps(
        spec.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return cdir


def _client(server: ClaimServer, plan: FaultPlan = None,
            **kw) -> RemoteClaimQueue:
    """An in-process client; faults injected below the retry loop."""
    transport = LocalTransport(server.dispatch)
    if plan is not None:
        transport = FaultyTransport(transport, plan, sleep=lambda s: None)
    kw.setdefault("sleep", lambda s: None)
    return RemoteClaimQueue(transport, **kw)


def _journal(cdir: Path) -> list:
    """Every event journaled in a campaign directory's store."""
    q = ClaimQueue(cdir / CLAIMS_NAME)
    try:
        return q.manifest.events()
    finally:
        q.close()


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory) -> str:
    """One result cache pre-warmed with every unit both specs expand
    to, so fault-schedule examples resolve units from disk instead of
    re-simulating per example."""
    cache = tmp_path_factory.mktemp("warm-cache")
    opts = RuntimeOptions(cache_dir=str(cache))
    for fields in (SPEC2, SPEC6):
        CampaignRunner(SweepSpec(**fields), options=opts).run()
    return str(cache)


@pytest.fixture(scope="module")
def control_artifacts(tmp_path_factory, warm_cache) -> dict:
    """Byte-exact single-process summary/report per spec — the
    equivalence target for every remote drain."""
    out = {}
    for fields in (SPEC2, SPEC6):
        spec = SweepSpec(**fields)
        root = tmp_path_factory.mktemp(f"control-{fields['name']}")
        CampaignRunner(
            spec, root=root, options=RuntimeOptions(cache_dir=warm_cache),
        ).run()
        cdir = root / spec.campaign_id
        out[fields["name"]] = {
            "summary": (cdir / "summary.json").read_bytes(),
            "report": (cdir / "report.txt").read_bytes(),
        }
    return out


# ======================================================================
# the shared retry-backoff schedule (hypothesis)
# ======================================================================

class TestBackoffSchedule:
    @given(
        attempts=st.integers(min_value=1, max_value=40),
        base=st.floats(min_value=0.0, max_value=10.0),
        cap=st.floats(min_value=0.0, max_value=120.0),
    )
    def test_monotone_nondecreasing_and_capped(self, attempts, base, cap):
        delays = [
            backoff_delay(n, base=base, cap=cap)
            for n in range(1, attempts + 1)
        ]
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        assert all(d <= cap for d in delays)
        assert delays[0] == min(base, cap)

    @given(
        attempt=st.integers(min_value=1, max_value=40),
        base=st.floats(min_value=1e-3, max_value=10.0),
        cap=st.floats(min_value=1e-3, max_value=120.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_jitter_stays_within_bounds(self, attempt, base, cap,
                                        jitter, seed):
        plain = backoff_delay(attempt, base=base, cap=cap)
        jittered = backoff_delay(
            attempt, base=base, cap=cap, jitter=jitter,
            rng=random.Random(seed),
        )
        # Jitter only stretches: never undershoots the deterministic
        # schedule, never exceeds it by more than the jitter fraction.
        assert plain <= jittered <= plain * (1.0 + jitter) * (1 + 1e-9)
        assert jittered <= cap * (1.0 + jitter) * (1 + 1e-9)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError, match="1-based"):
            backoff_delay(0, base=1.0, cap=2.0)
        with pytest.raises(ValueError, match="non-negative"):
            backoff_delay(1, base=-1.0, cap=2.0)
        with pytest.raises(ValueError, match="non-negative"):
            backoff_delay(1, base=1.0, cap=2.0, jitter=-0.1)

    def test_campaign_runner_draws_from_the_shared_schedule(self):
        runner = CampaignRunner(
            SweepSpec(**SPEC2), backoff_base=0.25, backoff_cap=4.0,
        )
        for n in range(1, 8):
            assert runner._backoff(n) == backoff_delay(
                n, base=0.25, cap=4.0
            )

    def test_remote_client_uses_jittered_schedule(self):
        """Every transport failure sleeps the shared schedule with the
        client's jitter before retrying."""
        slept = []
        failing = FaultyTransport(
            LocalTransport(lambda p: {"ok": True, "result": None}),
            FaultPlan.scripted(["drop", "drop", "drop"]),
            sleep=lambda s: None,
        )
        q = RemoteClaimQueue(
            failing, retries=3, backoff_base=0.1, backoff_cap=1.0,
            jitter=0.5, rng=random.Random(7), sleep=slept.append,
        )
        q._call("counts")
        reference = random.Random(7)
        for n, actual in enumerate(slept, start=1):
            expected = backoff_delay(
                n, base=0.1, cap=1.0, jitter=0.5, rng=reference
            )
            assert actual == expected
        assert len(slept) == 3


# ======================================================================
# the transport harness itself
# ======================================================================

class TestTransportHarness:
    def test_local_transport_round_trips_json(self):
        seen = {}

        def dispatch(payload):
            seen.update(payload)
            return {"ok": True, "result": [1, "two", None]}

        t = LocalTransport(dispatch)
        assert t.call({"method": "x", "params": {"a": 1}}) == {
            "ok": True, "result": [1, "two", None],
        }
        assert seen["method"] == "x"

    def test_local_transport_enforces_wire_serializability(self):
        t = LocalTransport(lambda p: {"ok": True})
        with pytest.raises(TransportError):
            t.call({"blob": b"raw bytes do not survive JSON"})
        with pytest.raises(TransportError):
            t.call({"nan": float("nan")})

    def test_http_transport_rejects_bad_urls(self):
        with pytest.raises(ValueError, match="scheme"):
            HttpTransport("ftp://host:1")
        with pytest.raises(ValueError, match="no host"):
            HttpTransport("http://")

    def test_fault_plan_scripted_then_ok_forever(self):
        plan = FaultPlan.scripted(["drop", "torn"])
        assert [plan.next() for _ in range(5)] == [
            "drop", "torn", "ok", "ok", "ok",
        ]
        assert plan.history == ["drop", "torn", "ok", "ok", "ok"]

    def test_fault_plan_rejects_unknown_verdicts(self):
        with pytest.raises(ValueError, match="unknown fault verdict"):
            FaultPlan.scripted(["explode"])
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.seeded(1, explode=0.5)

    def test_fault_plan_seeded_is_deterministic(self):
        a = FaultPlan.seeded(42, drop=0.2, dup=0.2, torn=0.2)
        b = FaultPlan.seeded(42, drop=0.2, dup=0.2, torn=0.2)
        assert [a.next() for _ in range(50)] == [
            b.next() for _ in range(50)
        ]
        assert set(a.history) > {"ok"}  # faults actually fire

    def _recording_inner(self):
        calls = []

        def dispatch(payload):
            calls.append(payload["method"])
            return {"ok": True, "result": len(calls)}

        return calls, LocalTransport(dispatch)

    def test_drop_never_reaches_the_server(self):
        calls, inner = self._recording_inner()
        t = FaultyTransport(inner, FaultPlan.scripted(["drop"]))
        with pytest.raises(TransportError, match="dropped"):
            t.call({"method": "m"})
        assert calls == []

    def test_torn_reaches_the_server_then_loses_the_response(self):
        """The at-least-once window: server-side effects happened, the
        caller cannot know."""
        calls, inner = self._recording_inner()
        t = FaultyTransport(inner, FaultPlan.scripted(["torn"]))
        with pytest.raises(TransportError, match="torn"):
            t.call({"method": "m"})
        assert calls == ["m"]

    def test_dup_delivers_twice_first_response_discarded(self):
        calls, inner = self._recording_inner()
        t = FaultyTransport(inner, FaultPlan.scripted(["dup"]))
        assert t.call({"method": "m"}) == {"ok": True, "result": 2}
        assert calls == ["m", "m"]

    def test_delay_sleeps_then_delivers(self):
        naps = []
        calls, inner = self._recording_inner()
        t = FaultyTransport(
            inner, FaultPlan.scripted(["delay"]),
            delay=0.25, sleep=naps.append,
        )
        t.call({"method": "m"})
        assert naps == [0.25] and calls == ["m"]
        assert t.log == [("delay", "m")]


# ======================================================================
# wire protocol: handshake, tokens, result shipping
# ======================================================================

class TestWireProtocol:
    def _server(self, tmp_path, fields=SPEC2, clock=time.time,
                cache=None) -> ClaimServer:
        spec = SweepSpec(**fields)
        _make_campaign(tmp_path / "runs", spec)
        return ClaimServer(
            tmp_path / "runs", spec.campaign_id,
            options=RuntimeOptions(
                cache_dir=cache or str(tmp_path / "server-cache")
            ),
            clock=clock,
        )

    def _warm_results(self, warm_cache, fields=SPEC2):
        """(unit, digest, result) for every unit, from the warm cache."""
        cache = ResultCache(warm_cache)
        out = []
        for unit in SweepSpec(**fields).expand():
            digest = unit.job_key(DEFAULT_CONFIG).cache_digest()
            result = cache.load(digest)
            assert result is not None
            out.append((unit, digest, result))
        return out

    def test_server_requires_a_cache_and_a_campaign(self, tmp_path):
        spec = SweepSpec(**SPEC2)
        with pytest.raises(QueueError, match="no campaign"):
            ClaimServer(
                tmp_path / "runs", spec.campaign_id,
                options=RuntimeOptions(cache_dir=str(tmp_path / "c")),
            )
        _make_campaign(tmp_path / "runs", spec)
        with pytest.raises(QueueError, match="cache"):
            ClaimServer(tmp_path / "runs", spec.campaign_id,
                        options=RuntimeOptions())

    def test_hello_rejects_wire_version_skew(self, tmp_path):
        server = self._server(tmp_path)
        q = _client(server)
        reply = server.dispatch({
            "method": "hello", "worker": "w1",
            "params": {"wire": WIRE_VERSION + 1},
        })
        assert reply == {
            "ok": False, "kind": "protocol",
            "error": reply["error"],
        }
        assert "wire version mismatch" in reply["error"]
        # The well-versed client handshake succeeds and carries the
        # spec, the campaign id, and a session ordinal.
        hello = q.hello()
        assert hello["campaign"] == server.campaign_id
        assert SweepSpec.from_dict(hello["spec"]).spec_digest() \
            == server.spec.spec_digest()
        server.close()

    def test_hello_rejects_foreign_spec_digest(self, tmp_path):
        server = self._server(tmp_path)
        q = _client(server)
        with pytest.raises(QueueError, match="spec digest"):
            q.hello(spec_digest="0" * 64)
        server.close()

    def test_unknown_method_is_a_protocol_error(self, tmp_path):
        server = self._server(tmp_path)
        q = _client(server)
        with pytest.raises(RemoteProtocolError, match="unknown method"):
            q._call("frobnicate")
        server.close()

    def test_internal_errors_do_not_leak_tracebacks(self, tmp_path):
        server = self._server(tmp_path)
        reply = server.dispatch({
            "method": "claim", "worker": "w1", "params": {},
        })  # missing limit/lease -> KeyError inside the handler
        assert reply["ok"] is False and reply["kind"] == "internal"
        server.close()

    def test_complete_refused_for_unshipped_digest(self, tmp_path):
        """The admissibility rule — and a refused complete must leave
        no journal event and keep the unit claimed."""
        server = self._server(tmp_path)
        q = _client(server, worker_id="host-a")
        q.hello()
        claimed = q.claim(1, lease=60)
        assert claimed
        with pytest.raises(QueueError, match="not shipped"):
            q.complete(claimed[0].unit_id, "ab" * 32)
        assert done_events(server.dir / CLAIMS_NAME) == {}
        assert q.counts().claimed == 1
        server.close()

    def test_put_result_rejects_garbage_and_wrong_types(self, tmp_path):
        server = self._server(tmp_path)
        q = _client(server)
        garbage = base64.b64encode(b"not a pickle").decode("ascii")
        with pytest.raises(QueueError, match="undecodable"):
            q._call("put_result", {"digest": "d1", "blob": garbage})
        not_a_result = base64.b64encode(
            pickle.dumps({"cycles": 5})
        ).decode("ascii")
        with pytest.raises(QueueError, match="not a SimulationResult"):
            q._call("put_result", {"digest": "d1", "blob": not_a_result})
        server.close()

    def test_result_shipping_round_trip_first_writer_wins(
            self, tmp_path, warm_cache):
        server = self._server(tmp_path)
        q = _client(server)
        (unit, digest, result) = self._warm_results(warm_cache)[0]
        assert server.cache.load(digest) is None
        assert q.ship_result(digest, result) is True
        assert q.ship_result(digest, result) is False  # second writer
        stored = server.cache.load(digest)
        assert stored == result
        assert stored.cycles == result.cycles
        server.close()

    def test_idempotency_token_replays_the_recorded_reply(
            self, tmp_path):
        """The same token never executes twice: a duplicated claim
        returns the original units instead of claiming more."""
        server = self._server(tmp_path, fields=SPEC6)
        payload = {
            "method": "claim", "worker": "host-a", "token": "tok-1",
            "params": {"limit": 2, "lease": 60},
        }
        first = server.dispatch(dict(payload))
        replay = server.dispatch(dict(payload))
        assert first["ok"] and first["result"]
        assert replay == first
        # A *new* token executes for real: our in-flight units are
        # skipped, different units come back.
        fresh = server.dispatch({**payload, "token": "tok-2"})
        got_first = {u["unit_id"] for u in first["result"]}
        got_fresh = {u["unit_id"] for u in fresh["result"]}
        assert got_first.isdisjoint(got_fresh)
        server.close()

    def test_torn_complete_retried_journals_exactly_once(
            self, tmp_path, warm_cache):
        """THE critical window: the server executes ``complete`` and
        journals, the response is lost, the client retries with the
        same token — the replayed reply must come from the token cache,
        never from a second journaling transaction."""
        server = self._server(tmp_path)
        setup = _client(server, worker_id="host-a")
        setup.hello()
        (cu,) = setup.claim(1, lease=60)
        unit = {
            u.unit_id: u for u in server.spec.expand()
        }[cu.unit_id]
        digest = unit.job_key(DEFAULT_CONFIG).cache_digest()
        setup.ship_result(digest, ResultCache(warm_cache).load(digest))

        torn = _client(
            server, plan=FaultPlan.scripted(["torn"]),
            worker_id="host-a",
        )
        committed = torn.complete(
            cu.unit_id, digest, wall=0.5, attempt=cu.attempt, session=1,
        )
        assert committed is True
        rows = done_events(server.dir / CLAIMS_NAME)
        assert rows == {cu.unit_id: 1}
        assert server.counts().done == 1
        server.close()

    def test_client_gives_up_after_retry_budget(self, tmp_path):
        server = self._server(tmp_path)
        q = _client(
            server, plan=FaultPlan.scripted(["drop"] * 10), retries=2,
        )
        with pytest.raises(RemoteUnavailable, match="3 attempt"):
            q.counts()
        server.close()

    def test_heartbeat_is_best_effort_under_partition(self, tmp_path):
        server = self._server(tmp_path)
        q = _client(
            server, plan=FaultPlan.scripted(["drop"] * 10), retries=1,
        )
        assert q.heartbeat(["u1"], lease=60) == 0  # no raise
        server.close()


# ======================================================================
# exactly-once under arbitrary fault schedules (hypothesis)
# ======================================================================

class TestExactlyOnceUnderFaults:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(schedule=st.lists(st.sampled_from(FAULT_KINDS), max_size=14))
    def test_any_fault_schedule_journals_exactly_once(
            self, schedule, warm_cache, control_artifacts):
        """Drain a whole campaign through a remote worker with an
        arbitrary injected fault prefix: every unit must come out with
        exactly one ``done`` journal event and artifacts byte-identical
        to the no-fault control."""
        spec = SweepSpec(**SPEC2)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            _make_campaign(tmp / "runs", spec)
            server = ClaimServer(
                tmp / "runs", spec.campaign_id,
                options=RuntimeOptions(cache_dir=str(tmp / "scache")),
            )
            try:
                plan = FaultPlan.scripted(schedule)
                queue = _client(server, plan=plan, retries=30)
                runner = CampaignRunner(
                    None, options=RuntimeOptions(cache_dir=warm_cache),
                )
                out = runner.attach_remote(queue, poll=0.0)
                units = spec.expand()
                assert len(out.results) == len(units)
                rows = done_events(server.dir / CLAIMS_NAME)
                assert rows == {u.unit_id: 1 for u in units}
                counts = server.counts()
                assert counts.done == len(units) and counts.active == 0
                assert server.finalize()
                control = control_artifacts[SPEC2["name"]]
                assert (server.dir / "summary.json").read_bytes() \
                    == control["summary"]
                assert (server.dir / "report.txt").read_bytes() \
                    == control["report"]
            finally:
                server.close()

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_seeded_fault_soup_with_two_alternating_workers(
            self, seed, warm_cache, control_artifacts):
        """Two successive remote workers with independent seeded fault
        streams drain one campaign (the second resolves what the first
        journaled); the invariants hold."""
        spec = SweepSpec(**SPEC6)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            _make_campaign(tmp / "runs", spec)
            server = ClaimServer(
                tmp / "runs", spec.campaign_id,
                options=RuntimeOptions(cache_dir=str(tmp / "scache")),
            )
            try:
                workers = [
                    CampaignRunner(
                        None, chunk_size=1,
                        options=RuntimeOptions(cache_dir=warm_cache),
                    ).attach_remote(
                        _client(
                            server,
                            plan=FaultPlan.seeded(
                                seed + i, drop=0.08, dup=0.08,
                                torn=0.08, delay=0.03,
                            ),
                            retries=30, worker_id=f"host-{i}",
                        ),
                        poll=0.0,
                    )
                    for i in range(2)
                ]
                units = spec.expand()
                resolved = set()
                for w in workers:
                    resolved |= set(w.results)
                assert resolved == {u.unit_id for u in units}
                rows = done_events(server.dir / CLAIMS_NAME)
                assert rows == {u.unit_id: 1 for u in units}
                assert server.finalize()
                control = control_artifacts[SPEC6["name"]]
                assert (server.dir / "summary.json").read_bytes() \
                    == control["summary"]
                assert (server.dir / "report.txt").read_bytes() \
                    == control["report"]
            finally:
                server.close()


# ======================================================================
# lease expiry under partition
# ======================================================================

class TestLeaseExpiryUnderPartition:
    def test_partitioned_loser_late_complete_refused_unjournaled(
            self, tmp_path, warm_cache, fake_clock):
        """Worker A claims, then partitions; its lease lapses; worker B
        reclaims and completes.  When the partition heals, A's late
        ``complete`` must be refused *without* touching the journal —
        cross-host there is no dead-pid shortcut, expiry only."""
        spec = SweepSpec(**SPEC2)
        _make_campaign(tmp_path / "runs", spec)
        server = ClaimServer(
            tmp_path / "runs", spec.campaign_id,
            options=RuntimeOptions(cache_dir=str(tmp_path / "scache")),
            clock=fake_clock,
        )
        warm = ResultCache(warm_cache)
        units = {u.unit_id: u for u in spec.expand()}

        a = _client(server, worker_id="host-a")
        a.hello()
        claimed_a = a.claim(len(units), lease=60)
        assert len(claimed_a) == len(units)

        # B cannot steal inside the lease, even though A's synthetic
        # pid 0 does not exist on this machine: cross-host reclaim is
        # expiry-only.
        b = _client(server, worker_id="host-b")
        b.hello()
        assert b.claim(len(units), lease=60) == []

        fake_clock.advance(61)
        claimed_b = b.claim(len(units), lease=60)
        assert {c.unit_id for c in claimed_b} == set(units)
        assert all(c.attempt == 2 for c in claimed_b)
        for cu in claimed_b:
            digest = units[cu.unit_id].job_key(
                DEFAULT_CONFIG).cache_digest()
            b.ship_result(digest, warm.load(digest))
            assert b.complete(
                cu.unit_id, digest, attempt=cu.attempt, session=2,
            ) is True

        # The partition heals; A finishes its stale work and tries to
        # complete.  Refused, and the journal stays exactly-once.
        for cu in claimed_a:
            digest = units[cu.unit_id].job_key(
                DEFAULT_CONFIG).cache_digest()
            assert a.complete(
                cu.unit_id, digest, attempt=cu.attempt, session=1,
            ) is False
        rows = done_events(server.dir / CLAIMS_NAME)
        assert rows == {uid: 1 for uid in units}
        for event in _journal(server.dir):
            if event.get("event") == "unit":
                assert event["attempt"] == 2, \
                    "only the reclaiming winner may journal"
        assert server.counts().done == len(units)
        server.close()


# ======================================================================
# server shutdown: finalize at once, close only when no worker is left
# ======================================================================

class TestServerCloses:
    """``repro sweep serve`` may finalize the moment every unit is
    terminal, but each worker still ends its drain with a ``claim`` and
    a ``counts``.  Closing the listener before those land killed the
    surviving worker with ``RemoteUnavailable`` although the campaign
    had completed."""

    def _server(self, tmp_path, fake_clock) -> ClaimServer:
        spec = SweepSpec(**SPEC2)
        _make_campaign(tmp_path / "runs", spec)
        return ClaimServer(
            tmp_path / "runs", spec.campaign_id,
            options=RuntimeOptions(cache_dir=str(tmp_path / "scache")),
            clock=fake_clock,
        )

    def _complete(self, server, client, claimed, warm_cache) -> None:
        units = {u.unit_id: u for u in server.spec.expand()}
        warm = ResultCache(warm_cache)
        for cu in claimed:
            digest = units[cu.unit_id].job_key(
                DEFAULT_CONFIG).cache_digest()
            client.ship_result(digest, warm.load(digest))
            assert client.complete(
                cu.unit_id, digest, attempt=cu.attempt, session=1,
            ) is True

    def test_waits_for_the_last_worker_to_read_active_zero(
            self, tmp_path, warm_cache, fake_clock):
        server = self._server(tmp_path, fake_clock)
        assert server.ready_to_close()  # nobody has claimed yet
        worker = _client(server, worker_id="host-a")
        worker.hello()
        self._complete(
            server, worker, worker.claim(10, lease=5), warm_cache,
        )
        assert server.is_complete() and server.finalize()
        fake_clock.advance(RELEASE_GRACE + 1)  # well inside the lease
        assert not server.ready_to_close()
        assert worker.claim(10, lease=5) == []
        assert not server.ready_to_close()
        assert worker.counts().active == 0
        # Answered, but that reply may have been torn: the retry must
        # still find the port open for a moment.
        assert not server.ready_to_close()
        fake_clock.advance(RELEASE_GRACE + 0.01)
        assert server.ready_to_close()
        server.close()

    def test_silent_killed_worker_delays_closing_by_its_lease(
            self, tmp_path, warm_cache, fake_clock):
        server = self._server(tmp_path, fake_clock)
        victim = _client(server, worker_id="victim")
        victim.hello()
        self._complete(
            server, victim, victim.claim(1, lease=30), warm_cache,
        )
        # The victim is SIGKILLed here: it never speaks again.
        survivor = _client(server, worker_id="survivor")
        survivor.hello()
        self._complete(
            server, survivor, survivor.claim(10, lease=5), warm_cache,
        )
        assert survivor.claim(10, lease=5) == []
        assert survivor.counts().active == 0
        assert server.is_complete() and server.finalize()
        fake_clock.advance(RELEASE_GRACE + 0.01)
        assert not server.ready_to_close()  # the victim might be alive
        fake_clock.advance(30 - RELEASE_GRACE - 0.01)
        assert not server.ready_to_close()  # silent exactly its lease
        fake_clock.advance(0.02)
        assert server.ready_to_close()
        server.close()


# ======================================================================
# whole-campaign drains, in process
# ======================================================================

class TestRemoteDrain:
    def test_cacheless_worker_drains_and_server_finalizes(
            self, tmp_path, control_artifacts):
        """A worker with *no* cache at all (pure result shipping) must
        produce server-side artifacts byte-identical to the
        single-process control."""
        spec = SweepSpec(**SPEC2)
        _make_campaign(tmp_path / "runs", spec)
        server = ClaimServer(
            tmp_path / "runs", spec.campaign_id,
            options=RuntimeOptions(cache_dir=str(tmp_path / "scache")),
        )
        out = CampaignRunner(
            None, options=RuntimeOptions(),  # cache-less client
        ).attach_remote(_client(server), poll=0.0)
        assert len(out.results) == len(spec.expand())
        assert server.is_complete()
        assert server.finalize()
        control = control_artifacts[SPEC2["name"]]
        assert (server.dir / "summary.json").read_bytes() \
            == control["summary"]
        assert (server.dir / "report.txt").read_bytes() \
            == control["report"]
        server.close()

    def test_late_worker_on_drained_campaign_resolves_via_server(
            self, tmp_path, warm_cache):
        """A worker that attaches after the campaign is done finds
        nothing to claim: it re-simulates and journals nothing."""
        spec = SweepSpec(**SPEC2)
        _make_campaign(tmp_path / "runs", spec)
        server = ClaimServer(
            tmp_path / "runs", spec.campaign_id,
            options=RuntimeOptions(cache_dir=str(tmp_path / "scache")),
        )
        first = CampaignRunner(
            None, options=RuntimeOptions(cache_dir=warm_cache),
        ).attach_remote(_client(server), poll=0.0)
        assert len(first.results) == len(spec.expand())

        late_runner = CampaignRunner(None, options=RuntimeOptions())
        late = late_runner.attach_remote(_client(server), poll=0.0)
        assert late.results == {}
        assert late_runner.stats.executed == 0, \
            "a late remote worker must not re-simulate done units"
        assert server.counts().done == len(spec.expand())
        rows = done_events(server.dir / CLAIMS_NAME)
        assert all(n == 1 for n in rows.values())
        server.close()


# ======================================================================
# one drain loop: in-memory, on-disk and remote campaigns agree
# ======================================================================

class TestDrainIdentity:
    def test_three_drains_byte_identical(self, tmp_path):
        """The same spec drained in memory, through an on-disk claim
        queue and by a remote worker over :class:`LocalTransport` —
        each simulating into its own (or no) cache — renders identical
        ``summary.json``/``report.txt`` bytes and journals identical
        ``unit`` events once ``wall`` and ``session`` are dropped."""
        spec = SweepSpec(
            name="drains", benchmarks=("fft", "swim"),
            schemes=("oracle", "algorithm-1"), scales=(SCALE, 0.1),
        )

        def unit_events(lines):
            return [
                {k: v for k, v in e.items() if k not in ("wall", "session")}
                for e in lines if e.get("event") == "unit"
            ]

        def read(cdir):
            return (
                (cdir / "summary.json").read_bytes(),
                (cdir / "report.txt").read_bytes(),
                unit_events(_journal(cdir)),
            )

        memory = CampaignRunner(spec, options=RuntimeOptions())
        res = memory.run()
        drains = {"memory": (
            (json.dumps(res.summary, indent=2, sort_keys=True)
             + "\n").encode(),
            (res.report + "\n").encode(),
            unit_events(memory.manifest.events()),
        )}

        CampaignRunner(
            spec, root=tmp_path / "disk",
            options=RuntimeOptions(cache_dir=str(tmp_path / "disk-cache")),
        ).run()
        drains["disk"] = read(tmp_path / "disk" / spec.campaign_id)

        _make_campaign(tmp_path / "remote", spec)
        server = ClaimServer(
            tmp_path / "remote", spec.campaign_id,
            options=RuntimeOptions(cache_dir=str(tmp_path / "srv-cache")),
        )
        try:
            CampaignRunner(None, options=RuntimeOptions()).attach_remote(
                _client(server), poll=0.0,
            )
            assert server.finalize()
        finally:
            server.close()
        drains["remote"] = read(server.dir)

        assert len(drains["memory"][2]) == len(spec.expand()) == 12
        for name in ("disk", "remote"):
            for part, a, b in zip(("summary", "report", "manifest"),
                                  drains["memory"], drains[name]):
                assert a == b, f"{part} differs: memory vs {name}"


# ======================================================================
# two real hosts over localhost HTTP, one SIGKILLed (slow)
# ======================================================================

#: A remote worker process: separate cache dir (its own "host"), naps
#: between shipping a result and completing it (inside ``complete``) so
#: a SIGKILL lands in the at-least-once window, short lease so the
#: survivor reclaims fast.
REMOTE_WORKER_SCRIPT = """
import sys, time
from repro.campaign import remote as R
from repro.campaign import CampaignRunner
from repro.runtime import RuntimeOptions

nap = float(sys.argv[3])
if nap:
    _orig = R.RemoteClaimQueue.ship_result
    def _slow(self, *a, **k):
        shipped = _orig(self, *a, **k)
        time.sleep(nap)
        return shipped
    R.RemoteClaimQueue.ship_result = _slow

CampaignRunner(
    None, chunk_size=1,
    options=RuntimeOptions(jobs=1, cache_dir=sys.argv[2]),
).attach_remote(sys.argv[1], lease=float(sys.argv[4]), poll=0.05)
"""


def _spawn_remote_worker(url, cache, nap, lease):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", REMOTE_WORKER_SCRIPT, url, str(cache),
         str(nap), str(lease)],
        cwd=str(Path(__file__).resolve().parent.parent),
        env=env,
    )


@pytest.mark.slow
class TestTwoHostKillOne:
    def test_kill_one_host_survivor_drains_byte_identical(
            self, tmp_path, control_artifacts):
        """The acceptance bar: server + two worker processes with
        disjoint caches over localhost HTTP, 10% injected faults are
        exercised elsewhere — here a worker dies by SIGKILL mid-drain;
        the survivor must finish every unit, nothing double-journaled,
        artifacts byte-identical to the single-process control."""
        spec = SweepSpec(**SPEC6)
        _make_campaign(tmp_path / "runs", spec)
        server = ClaimServer(
            tmp_path / "runs", spec.campaign_id,
            options=RuntimeOptions(cache_dir=str(tmp_path / "scache")),
        )
        handle = server.serve_http("127.0.0.1", 0)
        store = server.dir / CLAIMS_NAME
        total = len(spec.expand())
        victim = survivor = None
        try:
            victim = _spawn_remote_worker(
                handle.address, tmp_path / "cache-a", 0.4, 3.0,
            )
            deadline = time.time() + 180
            while time.time() < deadline:
                if done_events(store) or victim.poll() is not None:
                    break
                time.sleep(0.05)
            assert victim.poll() is None, \
                "victim finished before it could be killed"
            victim.send_signal(signal.SIGKILL)
            victim.wait()

            survivor = _spawn_remote_worker(
                handle.address, tmp_path / "cache-b", 0.0, 3.0,
            )
            assert survivor.wait(timeout=300) == 0
            deadline = time.time() + 30
            while not server.is_complete() and time.time() < deadline:
                time.sleep(0.05)
            assert server.is_complete()
            assert server.finalize()
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
            handle.close()
            server.close()

        rows = done_events(store)
        assert len(rows) == total
        assert all(n == 1 for n in rows.values()), rows
        control = control_artifacts[SPEC6["name"]]
        assert (server.dir / "summary.json").read_bytes() \
            == control["summary"]
        assert (server.dir / "report.txt").read_bytes() \
            == control["report"]
