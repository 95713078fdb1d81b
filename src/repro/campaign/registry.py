"""Run registry: find, inspect, and garbage-collect campaign dirs.

Every campaign lives under one *runs root* (``runs/`` by default,
overridable with ``--runs-dir`` or ``REPRO_RUNS_DIR``) as::

    runs/<campaign-id>/
        spec.json        # the SweepSpec that created it (lossless)
        claims.sqlite    # claim rows + event journal (resume state)
        summary.json     # deterministic machine-readable results
        report.txt       # EXPERIMENTS-style rendered tables

:class:`RunRegistry` is the read side of the campaign subsystem: it
lists campaigns with their folded journal state, loads their specs and
summaries, and garbage-collects directories (all, finished-only, or by
id) — the CLI's ``repro sweep ls|status|report|gc``.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.campaign.manifest import ManifestState
from repro.campaign.queue import CLAIMS_NAME, ClaimQueue
from repro.campaign.runner import REPORT_NAME, SPEC_NAME, SUMMARY_NAME
from repro.campaign.spec import SweepSpec

#: Environment override for the runs root (like ``REPRO_CACHE_DIR``).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"
DEFAULT_RUNS_DIR = "runs"


def default_runs_root() -> Path:
    return Path(os.environ.get(RUNS_DIR_ENV, DEFAULT_RUNS_DIR))


@dataclass(frozen=True)
class CampaignInfo:
    """One row of ``repro sweep ls``."""

    campaign_id: str
    path: Path
    total_units: int        #: from the journal header (0 if unknown)
    done: int
    failed: int
    sessions: int
    complete: bool          #: every expected unit is done
    live_leases: int = 0    #: claim-queue leases whose owner looks alive
    error: Optional[str] = None   #: unreadable store, if any

    @property
    def status(self) -> str:
        if self.error:
            return "corrupt"
        if self.complete:
            return "complete"
        if self.live_leases:
            return "running"
        if self.failed:
            return "failed"
        if self.done:
            return "partial"
        return "empty"


class RunRegistry:
    """List / inspect / clean campaign directories under one root."""

    def __init__(self, root: Union[None, str, Path] = None):
        self.root = Path(root) if root is not None else default_runs_root()

    # ------------------------------------------------------------------
    def campaign_dir(self, campaign_id: str) -> Path:
        return self.root / campaign_id

    def exists(self, campaign_id: str) -> bool:
        return (self.campaign_dir(campaign_id) / CLAIMS_NAME).exists()

    def store(self, campaign_id: str) -> ClaimQueue:
        """Open one campaign's store (journal, claim rows, leases)."""
        return ClaimQueue(self.campaign_dir(campaign_id) / CLAIMS_NAME)

    def spec(self, campaign_id: str) -> SweepSpec:
        return SweepSpec.load(self.campaign_dir(campaign_id) / SPEC_NAME)

    def summary(self, campaign_id: str) -> Optional[dict]:
        path = self.campaign_dir(campaign_id) / SUMMARY_NAME
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def report(self, campaign_id: str) -> Optional[str]:
        path = self.campaign_dir(campaign_id) / REPORT_NAME
        if not path.exists():
            return None
        return path.read_text()

    # ------------------------------------------------------------------
    def info(self, campaign_id: str) -> CampaignInfo:
        """Folded state of one campaign; an unreadable store yields a
        ``corrupt`` row instead of an exception."""
        try:
            with closing(self.store(campaign_id)) as store:
                return self._info(
                    campaign_id, store.manifest.state(),
                    store.live_leases(),
                )
        except Exception as exc:
            return CampaignInfo(
                campaign_id=campaign_id,
                path=self.campaign_dir(campaign_id),
                total_units=0, done=0, failed=0, sessions=0,
                complete=False,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _info(
        self, campaign_id: str, state: ManifestState, live_leases: int,
    ) -> CampaignInfo:
        total = (state.header or {}).get("total_units", 0)
        done = len(state.done_ids)
        failed = len(state.failed_ids)
        return CampaignInfo(
            campaign_id=campaign_id,
            path=self.campaign_dir(campaign_id),
            total_units=total,
            done=done,
            failed=failed,
            sessions=state.sessions,
            complete=bool(total) and done >= total,
            live_leases=live_leases,
        )

    def list(self) -> List[CampaignInfo]:
        """Every campaign under the root, newest store first."""
        if not self.root.is_dir():
            return []
        rows: List[CampaignInfo] = []
        for entry in sorted(self.root.iterdir()):
            if (entry / CLAIMS_NAME).exists():
                rows.append(self.info(entry.name))

        def mtime(info: CampaignInfo) -> float:
            # The store may vanish (gc race) or still be growing under
            # concurrent workers; never let sorting crash ls.
            try:
                return (info.path / CLAIMS_NAME).stat().st_mtime
            except OSError:
                return 0.0

        rows.sort(key=mtime, reverse=True)
        return rows

    def status(self, campaign_id: str) -> Dict[str, object]:
        """Machine-friendly status blob (``repro sweep status``).

        Raises :class:`~repro.campaign.queue.QueueError` for a store
        this version cannot read."""
        with closing(self.store(campaign_id)) as store:
            state = store.manifest.state()
            counts = store.counts()
            info = self._info(campaign_id, state, store.live_leases())
        pending = max(0, info.total_units - info.done - info.failed)
        blob: Dict[str, object] = {
            "campaign": campaign_id,
            "path": str(info.path),
            "status": info.status,
            "total_units": info.total_units,
            "done": info.done,
            "failed": info.failed,
            "pending": pending,
            "sessions": info.sessions,
            "spec_digest": (state.header or {}).get("spec_digest"),
            "queue": {
                "open": counts.open,
                "claimed": counts.claimed,
                "done": counts.done,
                "failed": counts.failed,
                "live_leases": info.live_leases,
            },
        }
        if state.completes:
            last = dict(state.completes[-1])
            last.pop("event", None)
            blob["last_complete"] = last
        if state.failed_ids:
            blob["failed_units"] = [
                {
                    "unit": uid,
                    "error": state.units[uid].error,
                    "attempts": state.units[uid].attempts,
                }
                for uid in sorted(state.failed_ids)
            ]
        return blob

    # ------------------------------------------------------------------
    def gc(
        self,
        *,
        ids: Optional[List[str]] = None,
        complete_only: bool = False,
        dry_run: bool = False,
    ) -> List[str]:
        """Delete campaign directories; returns the ids removed.

        ``ids=None`` considers every campaign; ``complete_only`` keeps
        anything not fully done (the safe default for bulk cleanup).
        Campaigns with a live claim-queue lease are never collected —
        deleting the directory under an active worker would orphan it —
        and a directory that vanished mid-walk is skipped, not fatal.
        """
        removed: List[str] = []
        candidates = (
            [self.info(i) for i in ids if self.campaign_dir(i).exists()]
            if ids is not None else self.list()
        )
        for info in candidates:
            if complete_only and not info.complete:
                continue
            if not info.complete and info.live_leases:
                continue  # a worker is still attached
            removed.append(info.campaign_id)
            if not dry_run:
                shutil.rmtree(info.path, ignore_errors=True)
        return sorted(removed)
