"""The campaign journal: an event table in the campaign's claim store.

A campaign records what happened as events in the ``journal`` table of
its SQLite store (``claims.sqlite``, or ``":memory:"`` for an in-memory
campaign; see :mod:`repro.campaign.queue`): a ``header`` event (spec
digest + unit count), one ``session`` event per runner process that
attached, one ``unit`` event per terminal unit outcome (``done`` /
``failed``), and one ``complete`` event per finished run.  The claim
queue inserts each ``unit`` event in the same transaction that moves
the unit's claim row, so a row and its event commit together or not
at all, at any instant a writer is killed.

The :class:`Manifest` API is the same for every store: ``record_done``
/ ``record_failed`` append events, :meth:`state` folds the journal
into per-unit status.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Unit status values as folded by :meth:`Manifest.state`.
DONE = "done"
FAILED = "failed"
PENDING = "pending"


@dataclass
class UnitState:
    """Folded journal state of one unit (last event wins)."""

    unit_id: str
    status: str = PENDING
    digest: Optional[str] = None      #: JobKey cache digest (done units)
    wall: Optional[float] = None      #: seconds spent simulating
    attempts: int = 0                 #: terminal events seen so far
    error: Optional[str] = None       #: last failure message
    session: Optional[int] = None     #: session that produced the event

    @property
    def done(self) -> bool:
        return self.status == DONE


@dataclass
class ManifestState:
    """Everything :meth:`Manifest.state` can fold out of the journal."""

    units: Dict[str, UnitState] = field(default_factory=dict)
    sessions: int = 0
    header: Optional[dict] = None
    completes: List[dict] = field(default_factory=list)

    def unit(self, unit_id: str) -> UnitState:
        return self.units.get(unit_id, UnitState(unit_id))

    @property
    def done_ids(self) -> List[str]:
        return [u for u, s in self.units.items() if s.status == DONE]

    @property
    def failed_ids(self) -> List[str]:
        return [u for u, s in self.units.items() if s.status == FAILED]


class Manifest:
    """The event journal of one campaign store.

    ``db`` is the store's connection (a
    :class:`~repro.campaign.queue.ClaimQueue` builds its own journal
    as :attr:`ClaimQueue.manifest`): an event appended inside one of
    the queue's transactions commits with it, any other event commits
    on its own.  Reads always see every committed event, whichever
    process wrote it.
    """

    def __init__(self, db: sqlite3.Connection):
        self._db = db

    def _append(self, event: dict) -> None:
        self._db.execute(
            "INSERT INTO journal(kind, unit, status, event)"
            " VALUES (?, ?, ?, ?)",
            (event["event"], event.get("unit"), event.get("status"),
             json.dumps(event, sort_keys=True)),
        )

    def events(self) -> List[dict]:
        """Every journaled event, oldest first."""
        return [
            json.loads(raw) for (raw,) in self._db.execute(
                "SELECT event FROM journal ORDER BY seq"
            )
        ]

    # ------------------------------------------------------------------
    # event writers
    # ------------------------------------------------------------------
    def write_header(self, campaign_id: str, spec_digest: str,
                     total_units: int) -> None:
        """Once per campaign (skipped when resuming an existing one)."""
        if self._db.execute(
            "SELECT 1 FROM journal WHERE kind='header'"
        ).fetchone():
            return
        self._append({
            "event": "header",
            "campaign": campaign_id,
            "spec_digest": spec_digest,
            "total_units": total_units,
            "time": time.time(),
        })

    def start_session(self, *, resume: bool = False) -> int:
        """Record one runner process attaching; returns its ordinal."""
        session = self.sessions + 1
        self._append({
            "event": "session",
            "session": session,
            "resume": resume,
            "time": time.time(),
        })
        return session

    def record_done(self, unit_id: str, digest: str, wall: float,
                    attempt: int, session: int) -> None:
        self._append({
            "event": "unit",
            "status": DONE,
            "unit": unit_id,
            "digest": digest,
            "wall": round(float(wall), 6),
            "attempt": attempt,
            "session": session,
        })

    def record_failed(self, unit_id: str, error: str, attempt: int,
                      session: int) -> None:
        self._append({
            "event": "unit",
            "status": FAILED,
            "unit": unit_id,
            "error": str(error)[:500],
            "attempt": attempt,
            "session": session,
        })

    def record_complete(self, session: int, summary: dict) -> None:
        """End-of-run marker with a stats snapshot for ``status``."""
        self._append({
            "event": "complete",
            "session": session,
            "time": time.time(),
            **summary,
        })

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    @property
    def sessions(self) -> int:
        (count,) = self._db.execute(
            "SELECT COUNT(*) FROM journal WHERE kind='session'"
        ).fetchone()
        return count

    def state(self) -> ManifestState:
        st = ManifestState()
        for event in self.events():
            kind = event.get("event")
            if kind == "header":
                st.header = event
            elif kind == "session":
                st.sessions += 1
            elif kind == "complete":
                st.completes.append(event)
            elif kind == "unit":
                uid = event.get("unit")
                if not uid:
                    continue
                unit = st.units.setdefault(uid, UnitState(uid))
                unit.attempts += 1
                unit.session = event.get("session")
                if event.get("status") == DONE:
                    unit.status = DONE
                    unit.digest = event.get("digest")
                    unit.wall = event.get("wall")
                    unit.error = None
                else:
                    unit.status = FAILED
                    unit.error = event.get("error")
        return st

    def done_ids(self) -> set:
        """Unit ids whose latest event is ``done`` (the resume skip set)."""
        return set(self.state().done_ids)
