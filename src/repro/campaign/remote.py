"""Network claim-queue backend: HTTP server + retrying client.

Multi-worker campaigns (PR 6) coordinate through a SQLite claim table
and share results through one cache directory — which requires one
filesystem.  This module removes that requirement while keeping the
exactly-once journaling contract:

* :class:`ClaimServer` owns the campaign directory.  It fronts the
  existing :class:`~repro.campaign.queue.ClaimQueue` with a small
  JSON-RPC dispatch (one method per backend verb) and serves it over a
  stdlib ``ThreadingHTTPServer`` (``repro sweep serve``).  All journal
  appends happen *here*, inside the queue's owner-guarded
  transactions, exactly as in the single-host runner.
* :class:`RemoteClaimQueue` is the client backend.  It speaks any
  :class:`~repro.campaign.transport.Transport` with a per-call
  timeout, capped exponential backoff with jitter
  (:func:`~repro.runtime.backoff.backoff_delay`), and per-operation
  **idempotency tokens**: each logical mutating call carries one token
  across all its retries, and the server replays the recorded reply
  for a token it has already executed.  At-least-once delivery,
  exactly-once effects — a retried ``complete()`` can never
  double-journal.

Result shipping rides the same channel: ``RemoteClaimQueue.complete``
uploads the unit's pickled :class:`~repro.arch.simulator.SimulationResult`
(content-addressed by JobKey digest, base64 over the wire) before it
asks the server to complete, so a worker needs no shared cache.  The
server materializes the blobs into the campaign cache with the same
first-writer-wins rule as :meth:`ResultCache.store`.  **Admissibility
rule:** the server refuses ``complete`` for a digest it does not hold,
so a journaled ``done`` always has its result bytes on the server and
``summary.json`` / ``report.txt`` stay byte-identical to a
single-host run.  Results never travel back to a worker.

Cross-host lease semantics follow the ROADMAP: the server registers
every client under a synthetic ``remote:<worker_id>`` host with pid 0,
so the same-host dead-pid shortcut can never fire between network
workers — a lost worker's units come back only through lease expiry.

Trust model: the server unpickles uploaded result blobs, exactly like
the shared cache directory it replaces — run it only for workers you
trust (a lab cluster, CI), not on the open internet.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
import socket
import threading
import time
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Protocol, Tuple, Union,
)

from repro.arch.simulator import SimulationResult
from repro.campaign.queue import (
    CLAIMS_NAME,
    ClaimQueue,
    ClaimedUnit,
    QueueCounts,
    QueueError,
)
from repro.campaign.spec import SweepSpec
from repro.campaign.transport import (
    RPC_PATH,
    WIRE_VERSION,
    HttpTransport,
    Transport,
    TransportError,
)
from repro.runtime.backoff import backoff_delay
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import RuntimeOptions

#: Replies remembered per idempotency token before the oldest ages out.
TOKEN_CACHE_SIZE = 4096

#: Refuse uploaded result blobs above this (a pickled SimulationResult
#: is a few KB; anything near this bound is a client bug).
MAX_BLOB_BYTES = 64 * 1024 * 1024

#: Seconds a worker must stay quiet after it was answered ``active ==
#: 0`` before the server counts it gone: that reply may have been torn,
#: and the worker's retry must still find the listener open.
RELEASE_GRACE = 1.0


class RemoteUnavailable(QueueError):
    """The claim server stayed unreachable through every retry."""


class RemoteProtocolError(QueueError):
    """The server answered, but not with something this client speaks
    (version skew, malformed reply, internal server error)."""


class ClaimBackend(Protocol):
    """What :class:`~repro.campaign.runner.CampaignRunner` needs from a
    claim queue — one signature for the SQLite queue (on disk or
    ``":memory:"``) and the network client, so one drain loop serves
    every campaign.

    Journaling is the backend's job: ``complete``/``fail`` carry the
    journal fields (``wall``/``attempt``/``session``) and the backend
    appends inside its owner-guarded claim transaction — locally, or on
    the server.  ``complete`` also receives the ``result``: a local
    queue ignores it (results travel through the shared cache); the
    network client ships it before completing.
    """

    worker_id: str

    def claim(self, limit: int, *, lease: float) -> List[ClaimedUnit]: ...

    def heartbeat(self, unit_ids: Iterable[str], *,
                  lease: float) -> int: ...

    def complete(self, unit_id: str, digest: str,
                 result: Optional[SimulationResult] = None, *,
                 wall: float = 0.0, attempt: int = 1,
                 session: int = 0) -> bool: ...

    def fail(self, unit_id: str, error: str, *, max_attempts: int,
             backoff: float = 0.0, attempt: int = 1,
             session: int = 0) -> str: ...

    def counts(self) -> QueueCounts: ...

    def close(self) -> None: ...


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class ClaimServer:
    """Front an on-disk campaign's claim queue for network workers.

    One instance per campaign.  Every dispatch is serialized behind a
    single lock — the queue transactions and their journal inserts are
    short, and a coordination server for simulation campaigns is
    nowhere near lock-bound — which lets the HTTP threads share the
    per-worker SQLite connections safely.
    """

    def __init__(
        self,
        root: Union[str, Path],
        campaign_id: str,
        *,
        options: Optional[RuntimeOptions] = None,
        clock: Callable[[], float] = time.time,
        token_cache_size: int = TOKEN_CACHE_SIZE,
    ):
        self.root = Path(root)
        self.campaign_id = campaign_id
        self.dir = self.root / campaign_id
        spec_path = self.dir / "spec.json"
        if not spec_path.exists():
            raise QueueError(
                f"no campaign {campaign_id!r} under {self.root} "
                "(run 'repro sweep serve --spec' to create one)"
            )
        self.spec = SweepSpec.load(spec_path)
        self.options = options or RuntimeOptions()
        if not self.options.cache_dir:
            raise QueueError(
                "the claim server materializes shipped results into the "
                "persistent cache; set cache_dir (--no-cache cannot serve)"
            )
        self.cache = ResultCache(self.options.cache_dir)
        self.clock = clock
        self._lock = threading.RLock()
        self._queues: Dict[str, ClaimQueue] = {}
        #: per claiming worker: (last lease it claimed with, when it
        #: last spoke, whether that was the drain's final ``counts``)
        self._claimants: Dict[str, Tuple[float, float, bool]] = {}
        self._replies: "OrderedDict[str, dict]" = OrderedDict()
        self._token_cache_size = max(1, int(token_cache_size))
        self._methods: Dict[str, Callable[[str, dict], object]] = {
            "hello": self._rpc_hello,
            "claim": self._rpc_claim,
            "heartbeat": self._rpc_heartbeat,
            "complete": self._rpc_complete,
            "fail": self._rpc_fail,
            "counts": self._rpc_counts,
            "put_result": self._rpc_put_result,
        }
        # The server's own store identity: journal the session, then
        # populate so the campaign is drainable the moment the first
        # worker says hello.
        q = self._queue_for(f"server:{socket.gethostname()}")
        self.manifest = q.manifest
        units = self.spec.expand()
        self._unit_ids = [u.unit_id for u in units]
        self.manifest.write_header(
            campaign_id, self.spec.spec_digest(), len(units)
        )
        self._session = self.manifest.start_session(resume=True)
        q.populate(self._unit_ids, spec_digest=self.spec.spec_digest())
        q.reopen_failed()

    # -- plumbing ------------------------------------------------------
    def _queue_for(self, worker: str) -> ClaimQueue:
        q = self._queues.get(worker)
        if q is None:
            q = ClaimQueue(
                self.dir / CLAIMS_NAME, worker_id=worker, clock=self.clock,
                check_same_thread=False,
            )
            # Network workers get a synthetic host and a pid no local
            # process ever has, so claims between them can never take
            # the same-host dead-pid shortcut: a lost remote worker's
            # units come back through lease expiry only.
            q.host = f"remote:{worker}"
            q.pid = 0
            self._queues[worker] = q
        return q

    def dispatch(self, payload: dict) -> dict:
        """Execute one RPC payload; always returns a reply dict.

        Replies for token-bearing requests are recorded and replayed
        verbatim on token reuse — the server-side half of the
        exactly-once contract.
        """
        try:
            if not isinstance(payload, dict):
                raise RemoteProtocolError(
                    f"request must be an object, got {type(payload).__name__}"
                )
            method = payload.get("method")
            worker = payload.get("worker")
            params = payload.get("params") or {}
            token = payload.get("token")
            handler = self._methods.get(method)
            if handler is None:
                raise RemoteProtocolError(f"unknown method {method!r}")
            if not worker or not isinstance(worker, str):
                raise RemoteProtocolError("request carries no worker id")
            with self._lock:
                if token is not None and token in self._replies:
                    reply = dict(self._replies[token])
                else:
                    reply = {"ok": True, "result": handler(worker, params)}
                    if token is not None:
                        self._replies[token] = reply
                        while len(self._replies) > self._token_cache_size:
                            self._replies.popitem(last=False)
                self._track(worker, method, params, reply["result"])
                return reply
        except RemoteProtocolError as exc:
            return {"ok": False, "kind": "protocol", "error": str(exc)}
        except QueueError as exc:
            return {"ok": False, "kind": "queue", "error": str(exc)}
        except Exception as exc:  # never leak a traceback onto the wire
            return {
                "ok": False, "kind": "internal",
                "error": f"{type(exc).__name__}: {exc}",
            }

    def _track(self, worker: str, method: str, params: dict,
               result) -> None:
        """Note when a claiming worker last spoke, and whether it was
        just answered the drain's final ``counts`` (``active == 0``)."""
        if method == "claim":
            lease = float(params["lease"])
        elif worker in self._claimants:
            lease = self._claimants[worker][0]
        else:
            return
        released = method == "counts" and QueueCounts(**result).active == 0
        self._claimants[worker] = (lease, self.clock(), released)

    # -- RPC methods ---------------------------------------------------
    def _rpc_hello(self, worker: str, params: dict) -> dict:
        wire = params.get("wire")
        if wire != WIRE_VERSION:
            raise RemoteProtocolError(
                f"wire version mismatch: server speaks {WIRE_VERSION}, "
                f"client sent {wire!r}"
            )
        digest = params.get("spec_digest")
        if digest is not None and digest != self.spec.spec_digest():
            raise QueueError(
                "client spec digest does not match the served campaign "
                f"({digest[:12]}... != {self.spec.spec_digest()[:12]}...)"
            )
        self._queue_for(worker).reopen_failed()
        session = self.manifest.start_session(resume=True)
        return {
            "campaign": self.campaign_id,
            "spec_digest": self.spec.spec_digest(),
            "spec": self.spec.to_json_dict(),
            "session": session,
            "units": len(self._unit_ids),
            "wire": WIRE_VERSION,
        }

    def _rpc_claim(self, worker: str, params: dict) -> List[dict]:
        claimed = self._queue_for(worker).claim(
            int(params["limit"]), lease=float(params["lease"])
        )
        return [
            {"unit_id": cu.unit_id, "attempt": cu.attempt} for cu in claimed
        ]

    def _rpc_heartbeat(self, worker: str, params: dict) -> int:
        return self._queue_for(worker).heartbeat(
            list(params.get("unit_ids") or []),
            lease=float(params["lease"]),
        )

    def _rpc_complete(self, worker: str, params: dict) -> dict:
        unit_id = params["unit_id"]
        digest = params["digest"]
        # Admissibility: a done unit must have its result bytes on the
        # server — otherwise a finalizing summary would have to
        # recompute it, and "done" would mean less than it says.
        if self.cache.load(digest) is None:
            raise QueueError(
                f"refusing complete({unit_id}): result {digest[:12]}... "
                "was not shipped (put_result first)"
            )
        committed = self._queue_for(worker).complete(
            unit_id, digest,
            wall=float(params.get("wall", 0.0)),
            attempt=int(params.get("attempt", 1)),
            session=int(params.get("session", 0)),
        )
        return {"committed": committed}

    def _rpc_fail(self, worker: str, params: dict) -> dict:
        outcome = self._queue_for(worker).fail(
            params["unit_id"], str(params.get("error", "")),
            max_attempts=int(params["max_attempts"]),
            backoff=float(params.get("backoff", 0.0)),
            attempt=int(params.get("attempt", 1)),
            session=int(params.get("session", 0)),
        )
        return {"outcome": outcome}

    def _rpc_counts(self, worker: str, params: dict) -> dict:
        return dataclasses.asdict(self._queue_for(worker).counts())

    def _rpc_put_result(self, worker: str, params: dict) -> dict:
        digest = params["digest"]
        blob = base64.b64decode(params["blob"])
        if len(blob) > MAX_BLOB_BYTES:
            raise QueueError(
                f"result blob for {digest[:12]}... is {len(blob)} bytes "
                f"(cap {MAX_BLOB_BYTES})"
            )
        try:
            result = pickle.loads(blob)
        except Exception as exc:
            raise QueueError(
                f"undecodable result blob for {digest[:12]}...: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(result, SimulationResult):
            raise QueueError(
                f"result blob for {digest[:12]}... is a "
                f"{type(result).__name__}, not a SimulationResult"
            )
        stored = self.cache.store(digest, result)
        return {"stored": stored}

    # -- lifecycle -----------------------------------------------------
    def counts(self) -> QueueCounts:
        with self._lock:
            return self._queue_for(
                f"server:{socket.gethostname()}"
            ).counts()

    def is_complete(self) -> bool:
        """Every unit terminal (done or failed), nothing in flight."""
        c = self.counts()
        return c.active == 0 and c.done + c.failed >= len(self._unit_ids)

    def ready_to_close(self) -> bool:
        """Whether closing the listener strands no worker.

        Finalizing may happen the moment :meth:`is_complete` holds, but
        each worker that claimed still ends its drain with a ``claim``
        and a ``counts``; a closed port would make those fail.  Ready
        once every claiming worker has been answered ``active == 0``
        (and stayed quiet :data:`RELEASE_GRACE` seconds) or been silent
        longer than the lease it last claimed with (killed or lost).
        """
        with self._lock:
            now = self.clock()
            return all(
                now - seen > (min(lease, RELEASE_GRACE) if released
                              else lease)
                for lease, seen, released in self._claimants.values()
            )

    def finalize(self) -> bool:
        """Materialize summary/report once every unit is terminal.

        The artifacts are a pure function of the results, computed from
        the server's cache — the same bytes a single-host run writes.
        """
        from repro.campaign.runner import CampaignRunner

        with self._lock:
            runner = CampaignRunner(
                self.spec, root=self.root, campaign_id=self.campaign_id,
                options=self.options,
            )
            try:
                return runner._finalize(self.spec.expand(), self._session)
            finally:
                runner.close()

    def serve_http(self, host: str = "127.0.0.1",
                   port: int = 0) -> "ServerHandle":
        """Serve :meth:`dispatch` on a daemon thread; returns a handle
        with the bound address (``port=0`` picks a free port)."""
        server = _RpcHTTPServer((host, port), _RpcHandler)
        server.claim_server = self
        thread = threading.Thread(
            target=server.serve_forever, name="repro-claim-server",
            daemon=True,
        )
        thread.start()
        return ServerHandle(server, thread)

    def close(self) -> None:
        with self._lock:
            for q in self._queues.values():
                q.close()
            self._queues.clear()


class ServerHandle:
    """A running HTTP claim server: address + shutdown."""

    def __init__(self, server: ThreadingHTTPServer,
                 thread: threading.Thread):
        self._server = server
        self._thread = thread
        self.host, self.port = server.server_address[:2]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


class _RpcHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    claim_server: ClaimServer  # attached by serve_http


class _RpcHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (http.server API)
        if self.path != RPC_PATH:
            self.send_error(404, "unknown endpoint")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except Exception:
            payload = None  # dispatch turns this into a protocol error
        reply = self.server.claim_server.dispatch(payload)
        body = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass  # the CLI owns stdout; per-request logging is noise


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class RemoteClaimQueue:
    """The :class:`ClaimBackend` that talks to a :class:`ClaimServer`.

    ``server`` is an ``http://host:port`` URL or any
    :class:`~repro.campaign.transport.Transport` (tests inject
    :class:`LocalTransport` wrapped in :class:`FaultyTransport`).

    Every transport failure is retried up to ``retries`` times with
    :func:`backoff_delay` (jittered so recovering servers are not
    hammered in lockstep).  Mutating verbs carry an idempotency token
    generated **once per logical operation** and reused across its
    retries; the server replays the recorded reply, so a ``complete``
    whose response was torn cannot journal twice when retried.
    """

    def __init__(
        self,
        server: Union[str, Transport],
        *,
        worker_id: Optional[str] = None,
        timeout: float = 10.0,
        retries: int = 6,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.5,
        rng=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if isinstance(server, str):
            self.transport: Transport = HttpTransport(
                server, timeout=timeout
            )
        else:
            self.transport = server
        self.worker_id = worker_id or (
            f"{socket.gethostname()}:{uuid.uuid4().hex[:8]}"
        )
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        import random as _random

        self._rng = rng if rng is not None else _random.Random()
        self._sleep = sleep

    # -- the retry loop ------------------------------------------------
    def _call(self, method: str, params: Optional[dict] = None, *,
              mutating: bool = False):
        payload = {
            "method": method,
            "worker": self.worker_id,
            "params": params or {},
        }
        if mutating:
            # One token per logical operation, shared by every retry of
            # it — the client-side half of the exactly-once contract.
            payload["token"] = uuid.uuid4().hex
        last: Optional[TransportError] = None
        for attempt in range(1, self.retries + 2):
            try:
                reply = self.transport.call(payload, timeout=self.timeout)
            except TransportError as exc:
                last = exc
                if attempt <= self.retries:
                    self._sleep(backoff_delay(
                        attempt, base=self.backoff_base,
                        cap=self.backoff_cap, jitter=self.jitter,
                        rng=self._rng,
                    ))
                    continue
                raise RemoteUnavailable(
                    f"claim server unreachable after {attempt} "
                    f"attempt(s): {last}"
                ) from exc
            if reply.get("ok"):
                return reply.get("result")
            message = reply.get("error", "unspecified server error")
            if reply.get("kind") == "queue":
                raise QueueError(message)
            raise RemoteProtocolError(message)
        raise AssertionError("unreachable")

    # -- backend verbs -------------------------------------------------
    def hello(self, *, spec_digest: Optional[str] = None) -> dict:
        return self._call(
            "hello",
            {"wire": WIRE_VERSION, "spec_digest": spec_digest},
            mutating=True,
        )

    def claim(self, limit: int, *, lease: float) -> List[ClaimedUnit]:
        rows = self._call(
            "claim", {"limit": int(limit), "lease": float(lease)},
            # A replayed claim must return the *same* units: without
            # the token, the retry would skip our own in-flight claims
            # and strand them until lease expiry.
            mutating=True,
        )
        return [
            ClaimedUnit(
                unit_id=row["unit_id"], attempt=int(row["attempt"])
            )
            for row in rows
        ]

    def heartbeat(self, unit_ids: Iterable[str], *,
                  lease: float) -> int:
        # Best-effort: a missed renewal during a partition is exactly
        # the lease-expiry case the queue is built to survive.
        try:
            return self._call(
                "heartbeat",
                {"unit_ids": list(unit_ids), "lease": float(lease)},
            )
        except RemoteUnavailable:
            return 0

    def complete(
        self,
        unit_id: str,
        digest: str,
        result: Optional[SimulationResult] = None,
        *,
        wall: float = 0.0,
        attempt: int = 1,
        session: int = 0,
    ) -> bool:
        """Ship ``result`` (unless None: already on the server), then
        complete; the server journals inside its claim transaction."""
        if result is not None:
            # Ship before complete: the server refuses a done unit
            # whose result bytes it does not hold.
            self.ship_result(digest, result)
        reply = self._call(
            "complete",
            {
                "unit_id": unit_id, "digest": digest,
                "wall": float(wall), "attempt": int(attempt),
                "session": int(session),
            },
            mutating=True,
        )
        return bool(reply["committed"])

    def fail(
        self,
        unit_id: str,
        error: str,
        *,
        max_attempts: int,
        backoff: float = 0.0,
        attempt: int = 1,
        session: int = 0,
    ) -> str:
        result = self._call(
            "fail",
            {
                "unit_id": unit_id, "error": str(error),
                "max_attempts": int(max_attempts),
                "backoff": float(backoff),
                "attempt": int(attempt), "session": int(session),
            },
            mutating=True,
        )
        return result["outcome"]

    def counts(self) -> QueueCounts:
        return QueueCounts(**self._call("counts"))

    # -- result shipping -----------------------------------------------
    def ship_result(self, digest: str, result: SimulationResult) -> bool:
        """Upload one result blob (idempotent, first-writer-wins)."""
        blob = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        reply = self._call(
            "put_result", {"digest": digest, "blob": blob}
        )
        return bool(reply["stored"])

    def close(self) -> None:
        self.transport.close()
