"""The campaign store: claim table and journal in one SQLite database.

``claims.sqlite`` is the one store of a campaign directory.  It holds
one claim row per sweep unit, which lets any number of worker processes
(``repro sweep worker``, or the children behind ``--workers N``) pull
open units concurrently, and the campaign's event journal
(:mod:`repro.campaign.manifest`):

* **claiming** is an atomic ``open -> claimed`` transition inside a
  ``BEGIN IMMEDIATE`` transaction, stamped with the claimer's identity
  (``host:pid:nonce``) and a **lease** deadline;
* **heartbeats** extend the lease before each claimed chunk runs, so a
  healthy worker keeps its work, while a SIGKILLed or hung worker's
  units return to the queue — immediately when the owner pid is
  visibly dead on the same host, or at lease expiry otherwise;
* **completion** is exactly-once: the ``claimed -> done`` transition is
  a conditional UPDATE guarded by the owner identity, and the unit's
  journal event is inserted in the same transaction — a worker whose
  lease was reclaimed loses the UPDATE and therefore never journals,
  and a worker killed mid-transaction leaves neither the row change nor
  the event.

Failed units keep their error and attempt count in the claim row (and
the journal); :meth:`ClaimQueue.reopen_failed` — the resume path —
reopens them, mirroring the PyExperimenter "reset failed experiments"
workflow.

The store never holds results: simulation outputs travel through the
content-addressed :mod:`repro.runtime.cache`, so the claim table adds
coordination without forking cache keys.  An in-memory campaign is the
same store on SQLite ``":memory:"``.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Union,
)

from repro.campaign.manifest import Manifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.simulator import SimulationResult

CLAIMS_NAME = "claims.sqlite"

#: ``PRAGMA user_version`` of the stores this code writes.  A store
#: written before the journal moved into it has a ``units`` table and
#: no stamp, and is refused rather than read as an empty journal.
STORE_VERSION = 1

#: Claim-row status values.
OPEN = "open"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"

#: Default lease (seconds) a claim stays valid without a heartbeat, and
#: how long an idle worker sleeps before re-polling the queue.
DEFAULT_LEASE = 120.0
DEFAULT_POLL = 0.5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS units (
    unit_id       TEXT PRIMARY KEY,
    status        TEXT NOT NULL DEFAULT 'open',
    owner         TEXT,
    owner_host    TEXT,
    owner_pid     INTEGER,
    lease_expires REAL NOT NULL DEFAULT 0,
    heartbeat     REAL NOT NULL DEFAULT 0,
    not_before    REAL NOT NULL DEFAULT 0,
    attempts      INTEGER NOT NULL DEFAULT 0,
    error         TEXT,
    digest        TEXT
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
-- one row per journal event: ``event`` is the whole event as JSON,
-- the other columns are what queries select on
CREATE TABLE IF NOT EXISTS journal (
    seq    INTEGER PRIMARY KEY,
    kind   TEXT NOT NULL,
    unit   TEXT,
    status TEXT,
    event  TEXT NOT NULL
);
"""


class QueueError(RuntimeError):
    """A claim-queue usage error (e.g. attaching with the wrong spec)."""


def _pid_alive(pid: Optional[int]) -> bool:
    """Best-effort liveness probe for a same-host pid."""
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM etc.: the pid exists but is not ours — treat as alive.
        return True
    return True


@dataclass(frozen=True)
class ClaimedUnit:
    """One successful claim: the unit and which attempt this is."""

    unit_id: str
    attempt: int


@dataclass(frozen=True)
class QueueCounts:
    """Row counts per status (one ``counts()`` snapshot)."""

    open: int = 0
    claimed: int = 0
    done: int = 0
    failed: int = 0
    #: seconds until the earliest backoff-delayed open unit becomes
    #: claimable (0 when no open unit is waiting out a backoff)
    wait: float = 0.0

    @property
    def total(self) -> int:
        return self.open + self.claimed + self.done + self.failed

    @property
    def active(self) -> int:
        """Units not yet in a terminal state."""
        return self.open + self.claimed


class ClaimQueue:
    """The ``claims.sqlite`` store of one campaign directory.

    :attr:`manifest` is the campaign journal in the same database:
    :meth:`complete` and :meth:`fail` append to it inside their
    owner-guarded transaction.  ``worker_id`` defaults to a fresh
    ``host:pid:nonce`` identity; ``clock`` is injectable so lease
    expiry is testable without sleeping.  Every mutating method is one
    WAL transaction, so any number of queues (processes) may point at
    the same file; ``path=":memory:"`` is a private in-process store.
    Opening a store written by another store version raises
    :class:`QueueError`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        worker_id: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        busy_timeout: float = 30.0,
        check_same_thread: bool = True,
    ):
        self.path = Path(path)
        self.clock = clock
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.worker_id = worker_id or (
            f"{self.host}:{self.pid}:{uuid.uuid4().hex[:6]}"
        )
        if str(path) != ":memory:":
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # ``check_same_thread=False`` lets the claim server's HTTP
        # threads share per-worker connections; the server serializes
        # every dispatch behind one lock, so sqlite never sees
        # concurrent use of a connection.
        self._db = sqlite3.connect(
            str(self.path), timeout=busy_timeout, isolation_level=None,
            check_same_thread=check_same_thread,
        )
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        try:
            self._init_store()
        except BaseException:
            self._db.close()
            raise
        self.manifest = Manifest(self._db)

    def _init_store(self) -> None:
        """Create and stamp a new store, or check an existing one's
        stamp — in one write transaction, so two processes creating a
        store at once cannot refuse each other: the second sees the
        first's tables and stamp together."""
        with self.transaction() as db:
            (version,) = db.execute("PRAGMA user_version").fetchone()
            if version == STORE_VERSION:
                return
            if version == 0 and not db.execute(
                "SELECT 1 FROM sqlite_master WHERE name='units'"
            ).fetchone():
                for statement in _SCHEMA.split(";"):
                    db.execute(statement)
                db.execute(f"PRAGMA user_version={STORE_VERSION}")
                return
            raise QueueError(
                f"campaign store {self.path} was written by another "
                f"version of repro (store version {version}, this one "
                f"reads {STORE_VERSION}); re-run the campaign under a new "
                "name"
            )

    def close(self) -> None:
        self._db.close()

    # ------------------------------------------------------------------
    @contextmanager
    def transaction(self):
        """One ``BEGIN IMMEDIATE`` write transaction (commit on exit).

        IMMEDIATE takes the write lock up front, so a transaction that
        read row state never loses a race before its UPDATE commits.
        """
        self._db.execute("BEGIN IMMEDIATE")
        try:
            yield self._db
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        else:
            self._db.execute("COMMIT")

    # ------------------------------------------------------------------
    # filling the table
    # ------------------------------------------------------------------
    def populate(
        self,
        unit_ids: Sequence[str],
        *,
        spec_digest: Optional[str] = None,
    ) -> int:
        """Insert missing units as ``open`` (idempotent).

        Row order is spec-expansion order, so single-worker claim order
        matches the pre-queue execution order.  ``spec_digest`` guards
        against attaching a queue to the wrong campaign.
        """
        added = 0
        with self.transaction() as db:
            if spec_digest is not None:
                row = db.execute(
                    "SELECT value FROM meta WHERE key='spec_digest'"
                ).fetchone()
                if row is None:
                    db.execute(
                        "INSERT INTO meta(key, value) "
                        "VALUES('spec_digest', ?)",
                        (spec_digest,),
                    )
                elif row[0] != spec_digest:
                    raise QueueError(
                        f"claim queue {self.path} belongs to a campaign "
                        f"with spec digest {row[0]}, not {spec_digest}"
                    )
            for uid in unit_ids:
                cur = db.execute(
                    "INSERT OR IGNORE INTO units(unit_id) VALUES (?)",
                    (uid,),
                )
                added += cur.rowcount
        return added

    def reopen_failed(self) -> int:
        """Reopen terminally failed units with a fresh attempt budget
        (the resume path); returns how many.  Their journal events
        stay, so the journal still counts every attempt."""
        with self.transaction() as db:
            return db.execute(
                "UPDATE units SET status=?, owner=NULL, owner_host=NULL,"
                " owner_pid=NULL, attempts=0, error=NULL, not_before=0"
                " WHERE status=?",
                (OPEN, FAILED),
            ).rowcount

    # ------------------------------------------------------------------
    # the worker protocol: claim -> heartbeat -> complete/fail
    # ------------------------------------------------------------------
    def claim(self, limit: int, *, lease: float) -> List[ClaimedUnit]:
        """Atomically claim up to ``limit`` units for ``lease`` seconds.

        Eligible units are ``open`` rows past their retry backoff, plus
        ``claimed`` rows whose owner is provably gone — lease expired,
        or a same-host owner pid that no longer exists (which is what
        makes recovery from a SIGKILLed worker immediate rather than a
        lease-timeout wait).
        """
        if limit <= 0:
            return []
        now = self.clock()
        out: List[ClaimedUnit] = []
        with self.transaction() as db:
            rows = db.execute(
                "SELECT unit_id, status, owner, owner_host, owner_pid,"
                " lease_expires, not_before, attempts FROM units"
                " WHERE status=? OR status=? ORDER BY rowid",
                (OPEN, CLAIMED),
            ).fetchall()
            for (uid, status, owner, ohost, opid, expires, not_before,
                 attempts) in rows:
                if len(out) >= limit:
                    break
                if status == OPEN:
                    if not_before > now:
                        continue
                elif owner == self.worker_id:
                    continue  # already ours and in flight
                elif expires > now and not (
                    ohost == self.host and not _pid_alive(opid)
                ):
                    continue  # someone else holds a live lease
                db.execute(
                    "UPDATE units SET status=?, owner=?, owner_host=?,"
                    " owner_pid=?, lease_expires=?, heartbeat=?,"
                    " attempts=attempts+1 WHERE unit_id=?",
                    (CLAIMED, self.worker_id, self.host, self.pid,
                     now + lease, now, uid),
                )
                out.append(ClaimedUnit(uid, attempts + 1))
        return out

    def heartbeat(self, unit_ids: Iterable[str], *, lease: float) -> int:
        """Extend the lease on units we still own; returns how many."""
        now = self.clock()
        renewed = 0
        with self.transaction() as db:
            for uid in unit_ids:
                cur = db.execute(
                    "UPDATE units SET lease_expires=?, heartbeat=?"
                    " WHERE unit_id=? AND status=? AND owner=?",
                    (now + lease, now, uid, CLAIMED, self.worker_id),
                )
                renewed += cur.rowcount
        return renewed

    def complete(
        self,
        unit_id: str,
        digest: Optional[str],
        result: Optional["SimulationResult"] = None,
        *,
        wall: float = 0.0,
        attempt: int = 1,
        session: int = 0,
    ) -> bool:
        """``claimed -> done`` if we still own the unit; exactly-once.

        The journal insert runs *inside* the claim transaction, after
        the owner-guarded UPDATE wins — so a worker whose lease was
        reclaimed never journals, and the row and its event commit
        together or not at all.  ``result`` is ignored: local results
        travel through the shared cache.  Returns False when the lease
        was lost (the caller's result is already in the shared cache;
        nothing else to do).
        """
        with self.transaction() as db:
            cur = db.execute(
                "UPDATE units SET status=?, digest=?, error=NULL"
                " WHERE unit_id=? AND status=? AND owner=?",
                (DONE, digest, unit_id, CLAIMED, self.worker_id),
            )
            if cur.rowcount != 1:
                return False
            self.manifest.record_done(unit_id, digest, wall, attempt, session)
        return True

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
        """Record one failed attempt; returns ``retry|failed|lost``.

        Below the attempt cap the unit reopens with a ``not_before``
        backoff (any worker may pick up the retry); at the cap it turns
        terminally ``failed`` (resettable via :meth:`reopen_failed`).
        Like :meth:`complete`, the journal event commits with the row.
        """
        now = self.clock()
        with self.transaction() as db:
            row = db.execute(
                "SELECT attempts FROM units"
                " WHERE unit_id=? AND status=? AND owner=?",
                (unit_id, CLAIMED, self.worker_id),
            ).fetchone()
            if row is None:
                return "lost"
            terminal = row[0] >= max_attempts
            if terminal:
                db.execute(
                    "UPDATE units SET status=?, owner=NULL,"
                    " owner_host=NULL, owner_pid=NULL, error=?"
                    " WHERE unit_id=?",
                    (FAILED, str(error)[:500], unit_id),
                )
            else:
                db.execute(
                    "UPDATE units SET status=?, owner=NULL,"
                    " owner_host=NULL, owner_pid=NULL, error=?,"
                    " not_before=? WHERE unit_id=?",
                    (OPEN, str(error)[:500], now + backoff, unit_id),
                )
            self.manifest.record_failed(unit_id, error, attempt, session)
        return "failed" if terminal else "retry"

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def counts(self) -> QueueCounts:
        rows = dict(
            self._db.execute(
                "SELECT status, COUNT(*) FROM units GROUP BY status"
            ).fetchall()
        )
        (next_open,) = self._db.execute(
            "SELECT MIN(not_before) FROM units WHERE status=?", (OPEN,)
        ).fetchone()
        return QueueCounts(
            open=rows.get(OPEN, 0),
            claimed=rows.get(CLAIMED, 0),
            done=rows.get(DONE, 0),
            failed=rows.get(FAILED, 0),
            wait=max(0.0, (next_open or 0.0) - self.clock()),
        )

    def live_leases(self) -> int:
        """Claimed units whose owner is plausibly still working."""
        now = self.clock()
        live = 0
        for ohost, opid, expires in self._db.execute(
            "SELECT owner_host, owner_pid, lease_expires FROM units"
            " WHERE status=?",
            (CLAIMED,),
        ).fetchall():
            if ohost == self.host:
                live += 1 if _pid_alive(opid) else 0
            elif expires > now:
                live += 1
        return live

    def rows(self) -> List[dict]:
        """Every claim row as a dict (tests and ``sweep status``)."""
        cols = (
            "unit_id", "status", "owner", "owner_host", "owner_pid",
            "lease_expires", "heartbeat", "not_before", "attempts",
            "error", "digest",
        )
        return [
            dict(zip(cols, row))
            for row in self._db.execute(
                f"SELECT {', '.join(cols)} FROM units ORDER BY rowid"
            ).fetchall()
        ]
