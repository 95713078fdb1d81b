"""Campaign execution: drive a sweep through the parallel runtime.

:class:`CampaignRunner` turns a :class:`~repro.campaign.spec.SweepSpec`
into results.  It owns no simulation logic — every unit resolves to the
same :class:`~repro.runtime.keys.JobKey` an interactive driver would
use and goes through the same :class:`~repro.runtime.ParallelRunner`
(memory -> disk cache -> execution), so campaigns and ad-hoc runs share
one cache namespace.  What the campaign layer adds:

* **one drain loop** (:meth:`CampaignRunner._drain`) over one claim
  backend signature (:class:`~repro.campaign.remote.ClaimBackend`):
  an in-memory campaign is a :class:`~repro.campaign.queue.ClaimQueue`
  on SQLite ``":memory:"``, an on-disk one shares ``claims.sqlite``
  with any number of workers (``repro sweep worker`` processes, or the
  children behind ``run(workers=N)``), and a remote worker drains a
  :class:`~repro.campaign.remote.RemoteClaimQueue`.  Workers claim
  units under a heartbeat lease, so a killed or hung worker's units
  return to the queue;
* a **journal** (:class:`~repro.campaign.manifest.Manifest`) in the
  same store as the claim rows, which the backend writes inside its
  owner-guarded claim transaction, so each completion is journaled
  exactly once and a ``SIGKILL``-ed campaign resumes exactly where it
  stopped: journaled-``done`` units are never re-simulated (their
  results come back through the warm disk cache), in-flight units
  simply rerun;
* **chunked** execution bounding how much work an interruption can
  lose (a small chunk when serial, twice the worker count when
  pooled);
* per-unit **failure isolation** with capped exponential-backoff
  retries — one diverging simulation fails its unit, not the campaign;
* a deterministic **summary** (``summary.json`` / ``report.txt``):
  a pure function of the results, so the artifacts are byte-identical
  regardless of worker count, interruption, drain, or claim order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.analysis.characterize import characterize_result, class_winners
from repro.analysis.metrics import geomean_improvement
from repro.analysis.report import format_bottleneck_tables, format_table
from repro.arch.simulator import SimulationResult
from repro.arch.stats import improvement_percent
from repro.campaign.manifest import Manifest, ManifestState
from repro.campaign.queue import (
    CLAIMS_NAME,
    DEFAULT_LEASE,
    DEFAULT_POLL,
    ClaimedUnit,
    ClaimQueue,
)
from repro.campaign.spec import BASELINE_LABEL, SweepSpec, SweepUnit
from repro.config import DEFAULT_CONFIG, ArchConfig
from repro.runtime import ParallelRunner, RunnerStats, RuntimeOptions
from repro.runtime.backoff import backoff_delay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.remote import ClaimBackend

SPEC_NAME = "spec.json"
SUMMARY_NAME = "summary.json"
REPORT_NAME = "report.txt"


def _write_atomic(path: Path, text: str) -> None:
    """Write-to-temp + ``os.replace`` so concurrent readers (and a
    finalizing ``sweep worker`` racing the parent) never see a torn
    artifact — both writers produce identical bytes anyway."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CampaignError(RuntimeError):
    """A campaign-level usage error (bad resume, spec mismatch, ...)."""


@dataclass
class CampaignResult:
    """Everything one :meth:`CampaignRunner.run` produced."""

    campaign_id: str
    root: Optional[Path]
    spec: SweepSpec
    results: Dict[str, SimulationResult]   #: unit_id -> result
    summary: dict
    report: str
    stats: RunnerStats
    state: ManifestState

    @property
    def ok(self) -> bool:
        return not self.summary.get("failed")


@dataclass
class WorkerResult:
    """What one :meth:`CampaignRunner.attach_worker` drain produced."""

    worker_id: str
    results: Dict[str, SimulationResult]   #: unit_id -> result (ours)
    stats: RunnerStats
    finalized: bool                        #: this worker wrote summary


class CampaignRunner:
    """Execute sweep units with journaling and retries.

    The runner opens its campaign store once, on first use: the
    directory's ``claims.sqlite``, or a ``":memory:"`` store when
    ``root=None`` — no campaign directory, which is exactly what the
    tuner's candidate evaluations need (the store outlives each
    :meth:`submit`, so units shared between calls stay ``done``).
    :meth:`close` releases it.  ``engine`` optionally injects an
    existing :class:`ParallelRunner` (shares its in-memory result
    table); otherwise engines are created lazily per
    ``(mesh, engine_profile)`` and closed with the runner.
    """

    def __init__(
        self,
        spec: Optional[SweepSpec] = None,
        *,
        root: Union[None, str, Path] = None,
        campaign_id: Optional[str] = None,
        options: Optional[RuntimeOptions] = None,
        base_cfg: ArchConfig = DEFAULT_CONFIG,
        engine: Optional[ParallelRunner] = None,
        stats: Optional[RunnerStats] = None,
        chunk_size: Optional[int] = None,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.spec = spec
        self.root = Path(root) if root is not None else None
        self.campaign_id = campaign_id or (
            spec.campaign_id if spec is not None else None
        )
        self.base_cfg = base_cfg
        self.options = options or RuntimeOptions()
        self.stats = (
            stats if stats is not None
            else (engine.stats if engine is not None else RunnerStats())
        )
        self._shared_engine = engine
        self._engines: Dict[tuple, ParallelRunner] = {}
        self.chunk_size = chunk_size
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        #: seconds napped so far, the in-memory store's clock (a cell,
        #: so the store's clock holds no reference back to the runner)
        self._slept = [0.0]
        self._queue: Optional[ClaimQueue] = None

    def close(self) -> None:
        """Close the campaign store and the engines this runner made."""
        if self._queue is not None:
            self._queue.close()
            self._queue = None
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def dir(self) -> Optional[Path]:
        if self.root is None or self.campaign_id is None:
            return None
        return self.root / self.campaign_id

    @property
    def queue(self) -> ClaimQueue:
        """The campaign store, opened on first use."""
        if self._queue is None:
            if self.dir is not None:
                self._queue = ClaimQueue(self.dir / CLAIMS_NAME)
            else:
                # One worker owns an in-memory table, so its clock only
                # has to advance through our own naps.
                slept = self._slept
                self._queue = ClaimQueue(":memory:", clock=lambda: slept[0])
        return self._queue

    @property
    def manifest(self) -> Manifest:
        """The campaign journal (in :attr:`queue`'s store)."""
        return self.queue.manifest

    def engine_for(self, unit: SweepUnit) -> ParallelRunner:
        if self._shared_engine is not None:
            return self._shared_engine
        key = (unit.mesh, unit.engine_profile)
        eng = self._engines.get(key)
        if eng is None:
            opts = dataclasses.replace(
                self.options, engine_profile=unit.engine_profile
            )
            eng = ParallelRunner(
                unit.config(self.base_cfg), opts, stats=self.stats
            )
            self._engines[key] = eng
        return eng

    def _effective_chunk(self) -> int:
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        if not self.options.parallel:
            # A small serial chunk bounds what an interruption can lose
            # while keeping claim transactions per unit low.
            return 8
        return max(1, 2 * self.options.effective_jobs)

    def _backoff(self, attempt: int) -> float:
        return backoff_delay(
            attempt, base=self.backoff_base, cap=self.backoff_cap
        )

    def _nap(self, seconds: float) -> None:
        self._slept[0] += seconds
        self._sleep(seconds)

    # ------------------------------------------------------------------
    # execution: every campaign drains one claim queue
    # ------------------------------------------------------------------
    def submit(
        self,
        units: Sequence[SweepUnit],
        *,
        session: Optional[int] = None,
    ) -> Dict[str, SimulationResult]:
        """Resolve every unit to a result; journal as units finish.

        The units drain through this runner's store.  Units the journal
        already marks ``done`` are *not* counted as new work — they
        resolve through the (warm) cache layers without a fresh journal
        entry, which is what makes resume idempotent.  Returns
        ``unit_id -> SimulationResult`` for every unit that succeeded
        (failed units are journaled and skipped).
        """
        if session is None:
            session = self.manifest.start_session()
        self._populate(units)
        # An empty claim on an in-memory store can only mean a retry
        # backoff: wait out exactly that (never longer than the cap).
        results = self._drain(
            self.queue, units, session,
            poll=self.backoff_cap if self.dir is None else None,
        )
        return self._resolve_rest(units, results)

    def _populate(self, units: Sequence[SweepUnit]) -> None:
        """Give every unit a claim row and reopen failed units for a
        fresh attempt budget."""
        self.queue.populate(
            [u.unit_id for u in units],
            spec_digest=(
                self.spec.spec_digest() if self.spec is not None else None
            ),
        )
        self.queue.reopen_failed()

    def _drain(
        self,
        queue: ClaimBackend,
        units: Sequence[SweepUnit],
        session: int,
        *,
        lease: Optional[float] = None,
        poll: Optional[float] = None,
    ) -> Dict[str, SimulationResult]:
        """Claim-and-run until no unit is ``open`` or ``claimed``.

        The one drain loop of every campaign — in memory, on disk, or
        remote.  An empty claim with active units left means retry
        backoffs or other workers' live leases: nap until the earliest
        backoff ends, at most ``poll`` seconds, and claim again.
        Returns the results this drain produced.
        """
        lease = DEFAULT_LEASE if lease is None else float(lease)
        poll = DEFAULT_POLL if poll is None else float(poll)
        by_id = {u.unit_id: u for u in units}
        results: Dict[str, SimulationResult] = {}
        while True:
            batch = queue.claim(self._effective_chunk(), lease=lease)
            if batch:
                self._work_claimed(
                    queue, batch, by_id, results, session, lease
                )
                continue
            counts = queue.counts()
            if counts.active == 0:
                return results
            self._nap(min(poll, counts.wait) if counts.wait else poll)

    def _work_claimed(
        self,
        queue: ClaimBackend,
        batch: Sequence[ClaimedUnit],
        by_id: Dict[str, SweepUnit],
        results: Dict[str, SimulationResult],
        session: int,
        lease: float,
    ) -> None:
        """Run one claimed chunk; the backend journals every outcome
        exactly once inside its claim transaction.

        The lease is renewed once per engine group, right before it
        runs, and per unit only when the group falls back to per-unit
        reruns (each rerun is a fresh stretch of work).
        """
        groups: Dict[tuple, List[tuple]] = {}
        for cu in batch:
            unit = by_id.get(cu.unit_id)
            if unit is None:
                queue.fail(cu.unit_id, "unit not in spec", max_attempts=0,
                           attempt=cu.attempt, session=session)
            else:
                groups.setdefault(
                    (unit.mesh, unit.engine_profile), []
                ).append((cu, unit))
        for members in groups.values():
            engine = self.engine_for(members[0][1])
            keys = [u.job_key(self.base_cfg) for _, u in members]
            queue.heartbeat([cu.unit_id for cu, _ in members], lease=lease)
            t0 = len(self.stats.job_times)
            try:
                outcomes = engine.run_many(keys)
            except Exception as exc:
                # Rerun unit-by-unit so one diverging simulation fails
                # one unit, not its chunk-mates.
                self.stats.record_fallback(exc)
                outcomes = None
            for (cu, unit), key in zip(members, keys):
                try:
                    if outcomes is None:
                        queue.heartbeat([cu.unit_id], lease=lease)
                        result = engine.run(key)
                    else:
                        result = outcomes[key]
                except Exception as exc:
                    queue.fail(
                        cu.unit_id, f"{type(exc).__name__}: {exc}",
                        max_attempts=self.max_attempts,
                        backoff=self._backoff(cu.attempt),
                        attempt=cu.attempt, session=session,
                    )
                    continue
                # The runtime's own timing of this very key (zero for a
                # cache hit) — never a same-description twin's.
                wall = dict(self.stats.job_times[t0:]).get(key, 0.0)
                if queue.complete(
                    cu.unit_id, key.cache_digest(), result,
                    wall=wall, attempt=cu.attempt, session=session,
                ):
                    results[cu.unit_id] = result
                # else: our lease was reclaimed mid-run — the winner
                # journals; our result stays in the shared cache.

    def _resolve_rest(
        self,
        units: Sequence[SweepUnit],
        results: Dict[str, SimulationResult],
    ) -> Dict[str, SimulationResult]:
        """Add every journaled-done unit this drain did not produce
        (earlier sessions, other workers) through the (warm) cache, so
        the caller sees every done unit."""
        done = self.manifest.done_ids()
        for unit in units:
            if unit.unit_id in done and unit.unit_id not in results:
                results[unit.unit_id] = self.engine_for(unit).run(
                    unit.job_key(self.base_cfg)
                )
        return results

    def _spawn_workers(self, workers: int) -> None:
        """Fork ``workers`` child worker processes and join them."""
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(
                target=_worker_process,
                args=(str(self.root),
                      self.campaign_id or self.spec.campaign_id,
                      self.options, self.base_cfg, self.max_attempts),
            )
            for _ in range(workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()

    def attach_worker(
        self,
        *,
        lease: Optional[float] = None,
        poll: Optional[float] = None,
        finalize: bool = False,
        worker_id: Optional[str] = None,
    ) -> WorkerResult:
        """Attach to an existing on-disk campaign as one more worker.

        Claims and runs units until the queue has no open or claimed
        units left, then returns.  ``finalize=True`` (the ``repro sweep
        worker`` CLI) additionally materializes ``summary.json`` /
        ``report.txt`` when every unit is terminal — the artifacts are
        a pure function of the results, so a parent runner writing them
        concurrently produces identical bytes.  Closes the runner.
        """
        if self.spec is None:
            raise CampaignError("attach_worker needs a SweepSpec")
        cdir = self.dir
        if cdir is None:
            raise CampaignError(
                "attach_worker needs an on-disk campaign (root=)"
            )
        if not self.options.cache_dir:
            raise CampaignError(
                "worker attach needs the persistent result cache "
                "(set cache_dir; --no-cache cannot share results)"
            )
        units = self.spec.expand()
        try:
            if worker_id is not None:
                self.queue.worker_id = worker_id
            self.manifest.write_header(
                self.campaign_id or self.spec.campaign_id,
                self.spec.spec_digest(), len(units),
            )
            session = self.manifest.start_session(resume=True)
            self._populate(units)
            results = self._drain(
                self.queue, units, session, lease=lease, poll=poll
            )
            finalized = finalize and self._finalize(units, session)
            return WorkerResult(
                worker_id=self.queue.worker_id, results=results,
                stats=self.stats, finalized=finalized,
            )
        finally:
            self.close()

    def attach_remote(
        self,
        server,
        *,
        lease: Optional[float] = None,
        poll: Optional[float] = None,
        worker_id: Optional[str] = None,
        timeout: float = 10.0,
    ) -> WorkerResult:
        """Attach to a campaign served over the network as one worker.

        ``server`` is an ``http://host:port`` URL, a
        :class:`~repro.campaign.transport.Transport`, or an already
        constructed :class:`~repro.campaign.remote.RemoteClaimQueue`.
        Unlike :meth:`attach_worker`, no campaign directory and no
        shared cache are required: the spec arrives in the ``hello``
        reply, ``complete`` ships each result to the server, and every
        journal append happens server-side inside the claim
        transaction.
        """
        from repro.campaign.remote import RemoteClaimQueue

        if isinstance(server, RemoteClaimQueue):
            queue = server
        else:
            queue = RemoteClaimQueue(
                server, worker_id=worker_id, timeout=timeout
            )
        with closing(queue):
            hello = queue.hello(
                spec_digest=(
                    self.spec.spec_digest()
                    if self.spec is not None else None
                ),
            )
            if self.spec is None:
                self.spec = SweepSpec.from_dict(hello["spec"])
            self.campaign_id = hello["campaign"]
            results = self._drain(
                queue, self.spec.expand(), int(hello["session"]),
                lease=lease, poll=poll,
            )
        return WorkerResult(
            worker_id=queue.worker_id, results=results,
            stats=self.stats, finalized=False,
        )

    def _finalize(self, units: Sequence[SweepUnit], session: int) -> bool:
        """Write summary/report if every unit is terminal (else False)."""
        state = self.manifest.state()
        if any(
            state.unit(u.unit_id).status not in ("done", "failed")
            for u in units
        ):
            return False
        self._materialize(units, self._resolve_rest(units, {}), session)
        return True

    def _materialize(
        self,
        units: Sequence[SweepUnit],
        results: Dict[str, SimulationResult],
        session: int,
    ) -> Tuple[dict, str, ManifestState]:
        """Summarize ``results``, write the artifacts (on-disk
        campaigns) and journal the session's ``complete`` marker."""
        state = self.manifest.state()
        summary = self._summarize(units, results, state)
        report = self._render_report(summary)
        if self.dir is not None:
            _write_atomic(
                self.dir / SUMMARY_NAME,
                json.dumps(summary, indent=2, sort_keys=True) + "\n",
            )
            _write_atomic(self.dir / REPORT_NAME, report + "\n")
        self.manifest.record_complete(session, {
            "units": len(units),
            "done": len(results),
            "failed": len(units) - len(results),
            "executed": self.stats.executed,
            "disk_hits": self.stats.disk_hits,
            "mem_hits": self.stats.mem_hits,
        })
        return summary, report, state

    # ------------------------------------------------------------------
    # the campaign entrypoint
    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False,
            workers: int = 1) -> CampaignResult:
        """Run (or resume) the full campaign and materialize artifacts.

        ``workers=N`` (N > 1) spawns N worker processes that drain the
        claim queue concurrently; the parent then reclaims anything a
        crashed child left behind and writes the summary.  Requires an
        on-disk campaign and the persistent cache (results travel
        between processes through it).
        """
        if self.spec is None:
            raise CampaignError("CampaignRunner.run needs a SweepSpec")
        workers = max(1, int(workers))
        cdir = self.dir
        if workers > 1:
            if cdir is None:
                raise CampaignError(
                    "multi-worker execution needs an on-disk campaign "
                    "(root=)"
                )
            if not self.options.cache_dir:
                raise CampaignError(
                    "multi-worker execution needs the persistent result "
                    "cache (set cache_dir; --no-cache cannot share "
                    "results between workers)"
                )
            if self.options.trace_events:
                raise CampaignError(
                    "--trace-events is process-local; it cannot be "
                    "combined with --workers"
                )
        if cdir is not None:
            self._prepare_dir(cdir, resume)
        elif resume:
            raise CampaignError("resume needs a campaign directory (root=)")

        units = self.spec.expand()
        self.manifest.write_header(
            self.campaign_id or self.spec.campaign_id,
            self.spec.spec_digest(), len(units),
        )
        session = self.manifest.start_session(resume=resume)
        if workers > 1:
            self._populate(units)
            self._spawn_workers(workers)
            # Our own drain reclaims whatever a crashed child left
            # behind; units the children failed for good stay failed.
            results = self._resolve_rest(
                units, self._drain(self.queue, units, session)
            )
        else:
            results = self.submit(units, session=session)

        summary, report, state = self._materialize(units, results, session)
        return CampaignResult(
            campaign_id=self.campaign_id or self.spec.campaign_id,
            root=cdir, spec=self.spec, results=results,
            summary=summary, report=report, stats=self.stats, state=state,
        )

    def _prepare_dir(self, cdir: Path, resume: bool) -> None:
        cdir.mkdir(parents=True, exist_ok=True)
        spec_path = cdir / SPEC_NAME
        spec_dict = self.spec.to_json_dict()
        if spec_path.exists():
            on_disk = json.loads(spec_path.read_text())
            disk_spec = SweepSpec.from_dict(on_disk)
            if disk_spec.spec_digest() != self.spec.spec_digest():
                raise CampaignError(
                    f"campaign {cdir.name!r} was created from a different "
                    "spec; pick a new --name or delete the directory"
                )
        else:
            spec_path.write_text(
                json.dumps(spec_dict, indent=2, sort_keys=True) + "\n"
            )
        if resume and not (cdir / CLAIMS_NAME).exists():
            raise CampaignError(
                f"campaign {cdir.name!r} has no manifest to resume"
            )
        if self.manifest.state().units and not resume:
            raise CampaignError(
                f"campaign {cdir.name!r} already has progress; use "
                "'repro sweep resume' to continue it"
            )

    # ------------------------------------------------------------------
    # summary (a pure function of the results: no timestamps, no walls)
    # ------------------------------------------------------------------
    def _summarize(
        self,
        units: Sequence[SweepUnit],
        results: Dict[str, SimulationResult],
        state: ManifestState,
    ) -> dict:
        baselines: Dict[tuple, int] = {}
        base_profiles: Dict[tuple, object] = {}
        for unit in units:
            if unit.label == BASELINE_LABEL and unit.unit_id in results:
                ctx = (unit.bench, unit.scale, unit.mesh, unit.engine_profile)
                baselines[ctx] = results[unit.unit_id].cycles
                base_profiles[ctx] = characterize_result(
                    results[unit.unit_id]
                )

        unit_rows: List[dict] = []
        failed: List[dict] = []
        groups: Dict[tuple, Dict[str, Dict[str, float]]] = {}
        scheme_profiles: Dict[tuple, object] = {}
        for unit in units:
            if unit.unit_id not in results:
                st = state.unit(unit.unit_id)
                failed.append({
                    "unit_id": unit.unit_id,
                    "describe": unit.describe(),
                    "error": st.error,
                    "attempts": st.attempts,
                })
                continue
            cycles = results[unit.unit_id].cycles
            row = dict(unit.to_json_dict())
            row["unit_id"] = unit.unit_id
            row["cycles"] = cycles
            ctx = (unit.bench, unit.scale, unit.mesh, unit.engine_profile)
            if unit.label == BASELINE_LABEL:
                profile = base_profiles[ctx]
            else:
                profile = characterize_result(results[unit.unit_id])
                scheme_profiles[
                    (unit.group_key, unit.bench, unit.label)
                ] = profile
            row["bottleneck"] = profile.bottleneck_class
            if unit.label != BASELINE_LABEL:
                base = baselines.get(ctx)
                if base is not None:
                    imp = improvement_percent(base, cycles)
                    row["improvement_pct"] = round(imp, 4)
                    per_bench = groups.setdefault(
                        unit.group_key, {}
                    ).setdefault(unit.bench, {})
                    per_bench[unit.label] = imp
            unit_rows.append(row)

        group_rows: List[dict] = []
        for key in sorted(groups, key=_group_sort_key):
            scale, mesh, profile, tun = key
            per_bench = groups[key]
            labels = sorted({lbl for row in per_bench.values() for lbl in row})
            geo = {
                lbl: round(geomean_improvement([
                    per_bench[b][lbl] for b in per_bench if lbl in per_bench[b]
                ]), 4)
                for lbl in labels
            }
            # DAMOV-style characterization: each benchmark is classified
            # by its *baseline* run's bottleneck, and per-class winners
            # aggregate scheme improvements over the class members.
            bottlenecks = {
                b: base_profiles[(b, scale, mesh, profile)].bottleneck_class
                for b in per_bench
                if (b, scale, mesh, profile) in base_profiles
            }
            profiles_json: Dict[str, Dict[str, dict]] = {}
            for b in sorted(per_bench):
                ctx = (b, scale, mesh, profile)
                per_label: Dict[str, dict] = {}
                if ctx in base_profiles:
                    per_label[BASELINE_LABEL] = _profile_json(
                        base_profiles[ctx]
                    )
                for lbl in sorted(per_bench[b]):
                    p = scheme_profiles.get((key, b, lbl))
                    if p is not None:
                        per_label[lbl] = _profile_json(p)
                if per_label:
                    profiles_json[b] = per_label
            group_rows.append({
                "scale": scale,
                "mesh": None if mesh is None else list(mesh),
                "engine_profile": profile,
                "tunables": dict(tun) if tun is not None else None,
                "per_benchmark": {
                    b: {lbl: round(v, 4) for lbl, v in row.items()}
                    for b, row in sorted(per_bench.items())
                },
                "geomean": geo,
                "bottlenecks": dict(sorted(bottlenecks.items())),
                "class_winners": class_winners(bottlenecks, per_bench),
                "profiles": profiles_json,
            })

        return {
            "campaign": self.campaign_id or self.spec.campaign_id,
            "spec_digest": self.spec.spec_digest(),
            "total_units": len(units),
            "completed_units": len(results),
            "failed": failed,
            "groups": group_rows,
            "units": unit_rows,
        }

    def _render_report(self, summary: dict) -> str:
        blocks: List[str] = [
            f"campaign {summary['campaign']} "
            f"({summary['completed_units']}/{summary['total_units']} units)",
        ]
        for group in summary["groups"]:
            title = f"scale {group['scale']:g}"
            if group["mesh"]:
                title += f" · mesh {group['mesh'][0]}x{group['mesh'][1]}"
            if group["engine_profile"] != "optimized":
                title += f" · {group['engine_profile']} engine"
            if group["tunables"]:
                title += " · tunables " + ",".join(
                    f"{k}={v}" for k, v in sorted(group["tunables"].items())
                )
            labels = sorted(group["geomean"])
            rows = [
                [bench, *(row.get(lbl, "-") for lbl in labels)]
                for bench, row in group["per_benchmark"].items()
            ]
            rows.append(
                ["geomean", *(group["geomean"][lbl] for lbl in labels)]
            )
            blocks.append(format_table(
                ["benchmark", *labels], rows,
                title=f"improvement % over baseline — {title}",
            ))
            prof_rows = [
                [bench, lbl, d["class"], d["row_conflict_rate"],
                 d["l1_miss_rate"], d["noc_stall_share"],
                 d["l2_stall_share"], d["dram_stall_share"]]
                for bench, per_label in group.get("profiles", {}).items()
                for lbl, d in per_label.items()
            ]
            tables = format_bottleneck_tables(
                prof_rows, group.get("class_winners", ()),
                title_suffix=f" — {title}",
            )
            if tables:
                blocks.append(tables)
        if summary["failed"]:
            blocks.append("failed units:")
            blocks.extend(
                f"  {f['describe']}: {f['error']} "
                f"(after {f['attempts']} attempts)"
                for f in summary["failed"]
            )
        return "\n\n".join(blocks)


def _profile_json(profile) -> dict:
    """JSON-friendly signal subset of a BottleneckProfile (the fields
    the report's characterization table renders)."""
    return {
        "class": profile.bottleneck_class,
        "row_conflict_rate": profile.row_conflict_rate,
        "l1_miss_rate": profile.l1_miss_rate,
        "noc_stall_share": profile.link_stall_share,
        "l2_stall_share": profile.l2_stall_share,
        "dram_stall_share": profile.dram_stall_share,
    }


def _group_sort_key(key: tuple) -> tuple:
    scale, mesh, profile, tun = key
    return (
        scale,
        mesh is not None, mesh or (0, 0),
        profile,
        tun is not None, tun or (),
    )


def _worker_process(
    root: str,
    campaign_id: str,
    options: RuntimeOptions,
    base_cfg: ArchConfig,
    max_attempts: int,
) -> None:
    """Child entrypoint for ``run(workers=N)`` (spawn context)."""
    spec = SweepSpec.load(Path(root) / campaign_id / SPEC_NAME)
    CampaignRunner(
        spec, root=root, campaign_id=campaign_id, options=options,
        base_cfg=base_cfg, max_attempts=max_attempts,
    ).attach_worker()

