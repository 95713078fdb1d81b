"""Resumable sweep campaigns over the experiment runtime.

The campaign subsystem turns the paper's evaluation cross-product
(benchmarks × schemes × scales × meshes × engine profiles × tunables)
into managed, crash-resumable runs:

* :mod:`repro.campaign.spec` — :class:`SweepSpec` (declarative,
  JSON/TOML-loadable) expands into :class:`SweepUnit` work units whose
  :class:`~repro.runtime.keys.JobKey`\\ s are digest-identical to the
  interactive drivers' (one cache namespace, never forked);
* :mod:`repro.campaign.queue` — ``claims.sqlite``, the campaign's one
  store: a lease-based claim table that lets any number of worker
  processes pull open units concurrently, and the event journal, whose
  ``done``/``failed`` events commit in the same transaction as their
  claim rows (exactly-once journaling that survives ``SIGKILL``);
* :mod:`repro.campaign.manifest` — :class:`Manifest`, the journal's
  reader and writer, which folds the events into per-unit state and
  makes resume exact;
* :mod:`repro.campaign.runner` — :class:`CampaignRunner` executes
  units through :class:`~repro.runtime.ParallelRunner` with chunking,
  per-unit failure isolation, and backoff retries, then materializes a
  deterministic ``summary.json`` / ``report.txt``;
* :mod:`repro.campaign.registry` — :class:`RunRegistry` lists,
  inspects, and garbage-collects campaign directories;
* :mod:`repro.campaign.transport` / :mod:`repro.campaign.remote` —
  the network claim backend: a stdlib HTTP claim server
  (``repro sweep serve``) fronting the SQLite queue, a retrying
  :class:`RemoteClaimQueue` client with idempotency tokens and result
  shipping, and a fault-injecting transport harness for the tests.

CLI surface: ``repro sweep run|resume|worker|serve|status|ls|report|gc``.
The stable programmatic surface is :func:`repro.api.sweep`.
"""

from repro.campaign.manifest import Manifest, ManifestState, UnitState
from repro.campaign.queue import (
    CLAIMS_NAME,
    ClaimQueue,
    ClaimedUnit,
    QueueCounts,
    QueueError,
)
from repro.campaign.remote import (
    ClaimBackend,
    ClaimServer,
    RemoteClaimQueue,
    RemoteProtocolError,
    RemoteUnavailable,
    ServerHandle,
)
from repro.campaign.registry import (
    CampaignInfo,
    RunRegistry,
    RUNS_DIR_ENV,
    default_runs_root,
)
from repro.campaign.runner import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    WorkerResult,
)
from repro.campaign.spec import (
    BASELINE_LABEL,
    SweepSpec,
    SweepUnit,
    lineup_units,
    normalize_tunables,
)
from repro.campaign.transport import (
    FaultPlan,
    FaultyTransport,
    HttpTransport,
    LocalTransport,
    Transport,
    TransportError,
)

__all__ = [
    "BASELINE_LABEL",
    "CLAIMS_NAME",
    "CampaignError",
    "CampaignInfo",
    "CampaignResult",
    "CampaignRunner",
    "ClaimBackend",
    "ClaimQueue",
    "ClaimServer",
    "ClaimedUnit",
    "FaultPlan",
    "FaultyTransport",
    "HttpTransport",
    "LocalTransport",
    "Manifest",
    "ManifestState",
    "QueueCounts",
    "QueueError",
    "RemoteClaimQueue",
    "RemoteProtocolError",
    "RemoteUnavailable",
    "RunRegistry",
    "RUNS_DIR_ENV",
    "ServerHandle",
    "SweepSpec",
    "SweepUnit",
    "Transport",
    "TransportError",
    "UnitState",
    "WorkerResult",
    "default_runs_root",
    "lineup_units",
    "normalize_tunables",
]
