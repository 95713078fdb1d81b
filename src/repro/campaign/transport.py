"""Claim-queue wire transport, with first-class fault injection.

The network claim backend (:mod:`repro.campaign.remote`) is split into
two layers so its failure behaviour is testable without a network:

* a **transport** moves one request dict to the server and one response
  dict back.  :class:`HttpTransport` does it over HTTP (stdlib
  ``http.client``, one short-lived connection per call — thread-safe
  and proxy-free); :class:`LocalTransport` calls a server dispatch
  function in-process, round-tripping both payloads through JSON so
  anything that would not survive the real wire fails identically;
* :class:`FaultyTransport` wraps any transport and injects the four
  canonical distributed failures on a deterministic, seeded schedule:

  ========== ==========================================================
  ``drop``   the request never reaches the server (connection refused,
             partition on the way out)
  ``delay``  the request is delivered after a slow-link pause
  ``dup``    the request is delivered **twice**, the first response is
             discarded (a client retry racing a slow response)
  ``torn``   the server processes the request but the response is lost
             mid-read (the at-least-once window every retry loop has to
             survive)
  ========== ==========================================================

Every failure surfaces to the caller as :class:`TransportError`; the
client's retry loop (capped exponential backoff with jitter, see
:mod:`repro.runtime.backoff`) plus the server's idempotency tokens turn
at-least-once delivery back into exactly-once effects — which is
precisely what ``tests/test_campaign_remote.py`` pins with hypothesis
fault schedules.
"""

from __future__ import annotations

import http.client
import json
import random
import urllib.parse
from typing import Callable, Dict, List, Optional, Protocol, Sequence

#: Wire-protocol version; ``hello`` rejects a mismatched client.  v2:
#: ``counts`` replies carry ``wait``; ``populate``/``reconcile`` are
#: server-side only.  v3: the journal moved into the claim store, and
#: the RPCs that repaired the two stores' divergence are gone.
WIRE_VERSION = 3

#: The RPC endpoint every request POSTs to.
RPC_PATH = "/rpc"

#: Fault verdicts a schedule may issue per call.
FAULT_KINDS = ("ok", "drop", "delay", "dup", "torn")


class TransportError(RuntimeError):
    """A network-level failure: the caller cannot know whether the
    server processed the request.  Always retryable — effects are
    deduplicated server-side via idempotency tokens."""


class Transport(Protocol):
    """Anything that can carry one RPC round trip."""

    def call(self, payload: dict, *,
             timeout: Optional[float] = None) -> dict: ...

    def close(self) -> None: ...


class HttpTransport:
    """Stdlib HTTP transport: ``POST <base_url>/rpc`` with a JSON body.

    A fresh connection per call keeps the transport thread-safe and
    makes every timeout a *per-call* bound (connect + write + read).
    Any socket error, non-200 status, or undecodable body raises
    :class:`TransportError`.
    """

    def __init__(self, base_url: str, *, timeout: float = 10.0):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(
                f"unsupported claim-server URL scheme {parsed.scheme!r} "
                f"(use http://host:port)"
            )
        netloc = parsed.netloc or parsed.path
        if not netloc:
            raise ValueError(f"claim-server URL {base_url!r} has no host")
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.timeout = timeout

    def call(self, payload: dict, *,
             timeout: Optional[float] = None) -> dict:
        body = json.dumps(payload).encode("utf-8")
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            conn.request(
                "POST", RPC_PATH, body,
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            raw = resp.read()
            if resp.status != 200:
                raise TransportError(
                    f"claim server returned HTTP {resp.status}: "
                    f"{raw[:200]!r}"
                )
        except TransportError:
            raise
        except Exception as exc:  # socket errors, timeouts, resets
            raise TransportError(
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            reply = json.loads(raw.decode("utf-8"))
        except Exception as exc:
            raise TransportError(
                f"undecodable response ({len(raw)} bytes)"
            ) from exc
        if not isinstance(reply, dict):
            raise TransportError(f"non-object response: {reply!r}")
        return reply

    def close(self) -> None:
        pass  # connections are per-call; nothing is held open


class LocalTransport:
    """In-process transport: call a server ``dispatch`` directly.

    Both payloads are round-tripped through JSON, so a request or
    response that would not survive the real wire (bytes, tuples as
    dict keys, NaN...) fails here too — the fault-injection suites run
    against the same serialization surface production does.
    """

    def __init__(self, dispatch: Callable[[dict], dict]):
        self.dispatch = dispatch

    def call(self, payload: dict, *,
             timeout: Optional[float] = None) -> dict:
        try:
            wire = json.loads(json.dumps(payload, allow_nan=False))
            reply = self.dispatch(wire)
            return json.loads(json.dumps(reply, allow_nan=False))
        except TransportError:
            raise
        except Exception as exc:
            raise TransportError(
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def close(self) -> None:
        pass


class FaultPlan:
    """A deterministic per-call fault schedule.

    Two construction modes:

    * :meth:`scripted` — an explicit verdict sequence, consumed one
      call at a time; once exhausted every further call is ``ok`` (so
      a finite fault prefix always lets the protocol finish, which is
      what the hypothesis exactly-once properties need);
    * :meth:`seeded` — an endless pseudo-random schedule drawn from
      ``random.Random(seed)`` with per-kind rates (the CI smoke uses
      a 10% aggregate rate).

    ``history`` records every verdict issued, for assertions.
    """

    def __init__(self, verdicts: Sequence[str] = (),
                 *, rng: Optional[random.Random] = None,
                 rates: Optional[Dict[str, float]] = None):
        for v in verdicts:
            if v not in FAULT_KINDS:
                raise ValueError(f"unknown fault verdict {v!r}")
        self._script: List[str] = list(verdicts)
        self._rng = rng
        self._rates = dict(rates or {})
        bad = set(self._rates) - set(FAULT_KINDS)
        if bad:
            raise ValueError(f"unknown fault kind(s) {sorted(bad)}")
        self.history: List[str] = []

    @classmethod
    def scripted(cls, verdicts: Sequence[str]) -> "FaultPlan":
        return cls(verdicts)

    @classmethod
    def seeded(cls, seed: int, **rates: float) -> "FaultPlan":
        return cls(rng=random.Random(seed), rates=rates)

    def next(self) -> str:
        if self._script:
            verdict = self._script.pop(0)
        elif self._rng is not None:
            roll = self._rng.random()
            verdict = "ok"
            acc = 0.0
            for kind in ("drop", "delay", "dup", "torn"):
                acc += self._rates.get(kind, 0.0)
                if roll < acc:
                    verdict = kind
                    break
        else:
            verdict = "ok"
        self.history.append(verdict)
        return verdict


class FaultyTransport:
    """Thread a :class:`FaultPlan` under any transport.

    The wrapper sits *below* the client's retry loop, exactly where a
    real network fails: a ``drop`` never reaches the inner transport, a
    ``torn`` delivers the request and then loses the response, a
    ``dup`` delivers it twice (first response discarded).  ``delay``
    calls ``sleep`` (injectable; tests pass a no-op or a fake clock)
    before delivering.
    """

    def __init__(self, inner: Transport, plan: FaultPlan, *,
                 delay: float = 0.05,
                 sleep: Optional[Callable[[float], None]] = None):
        import time

        self.inner = inner
        self.plan = plan
        self.delay = delay
        self._sleep = sleep if sleep is not None else time.sleep
        #: (verdict, method) per call, for assertions.
        self.log: List[tuple] = []

    def call(self, payload: dict, *,
             timeout: Optional[float] = None) -> dict:
        verdict = self.plan.next()
        self.log.append((verdict, payload.get("method")))
        if verdict == "drop":
            raise TransportError("injected fault: request dropped")
        if verdict == "delay":
            self._sleep(self.delay)
            return self.inner.call(payload, timeout=timeout)
        if verdict == "dup":
            self.inner.call(payload, timeout=timeout)
            return self.inner.call(payload, timeout=timeout)
        if verdict == "torn":
            self.inner.call(payload, timeout=timeout)
            raise TransportError("injected fault: response torn")
        return self.inner.call(payload, timeout=timeout)

    def close(self) -> None:
        self.inner.close()
