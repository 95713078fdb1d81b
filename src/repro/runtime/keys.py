"""Canonical job identity for the experiment runtime.

A simulation job is fully described by

* the machine description (:class:`~repro.config.ArchConfig`),
* the workload scale,
* and a :class:`JobKey` — benchmark, compilation variant, scheme spec,
  collection flags, and the pass options forwarded to the compiler.

Two digests are derived from that description:

* :func:`config_digest` — a stable content hash of an ``ArchConfig``;
* :func:`JobKey.cache_digest` — the full on-disk cache key, which also
  folds in the package version and the cache schema version so that
  any semantic change to the simulator invalidates old entries.

Canonicalization (:func:`canonical`) is deliberately explicit: enums
become ``["enum", type, value]`` triples, dataclasses become
``["dc", type, {field: ...}]`` — never ``repr()``, which varies across
Python versions (notably for ``IntFlag``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

from repro.config import ArchConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.tunables import Tunables
    from repro.schemes import NdcScheme

#: Bump when the meaning of cached payloads changes (e.g. new fields on
#: SimulationResult); combined with the package version in every digest.
#: v2: the reserve/commit engine (gap-filling resource timelines, paired
#: DRAM service for NDC packages, L2 bank-port gating) changed cycle
#: counts, and ``SimStats`` grew ``resource_util`` — results cached
#: under the commit-ahead schema must not be replayed.
#: v3: compile-time tunables joined the key (``JobKey.tunables``) and
#: scheme specs grew resolved tunables-derived fields — v2 entries were
#: keyed as if those parameters could never vary.
CACHE_SCHEMA_VERSION = 3


def canonical(obj):
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Supports the types that appear in :class:`~repro.config.ArchConfig`
    and in job keys: primitives, enums (including ``IntFlag`` masks),
    (frozen) dataclasses, tuples/lists, and dicts.
    """
    # Enums first: IntEnum/IntFlag instances are also ints.
    if isinstance(obj, Enum):
        return ["enum", type(obj).__name__, int(obj.value)]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dc",
            type(obj).__name__,
            {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        ]
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["map", items]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def digest_of(obj) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    blob = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_digest(cfg: ArchConfig) -> str:
    """Stable content hash of a machine description."""
    return digest_of(cfg)


@dataclass(frozen=True)
class JobKey:
    """Canonical, hashable, picklable identity of one simulation job.

    This single structure is shared by the in-memory cache of
    :class:`~repro.analysis.experiments.ExperimentRunner`, the
    persistent on-disk cache, and the process-pool fan-out — fixing the
    historical key that omitted the config and the scale (two runners
    with different configs could collide once results persisted).
    """

    bench: str
    variant: str = "original"
    #: picklable scheme description (see ``NdcScheme.spec``); None = no
    #: scheme, i.e. the conventional baseline
    scheme_spec: Optional[tuple] = None
    #: human-readable label (participates in identity like the legacy
    #: in-memory key did; always derived from the scheme name unless a
    #: caller overrides it)
    label: str = "original"
    profile_windows: bool = False
    collect_window_series: bool = False
    collect_pc_stats: bool = False
    #: sorted (name, value) pairs of pass options (e.g. ``mask``, ``k``)
    trace_opts: Tuple[Tuple[str, object], ...] = ()
    scale: float = 0.4
    #: content hash of the ArchConfig the job runs under
    config_digest: str = ""
    #: compile-time calibration the trace was generated under (see
    #: :class:`repro.core.tunables.Tunables`); ``None`` for jobs whose
    #: trace generation consults no tunables (the ``"original"``
    #: variant), so baselines are shared across tuning candidates.
    #: Scheme-side tunables need no extra field: every scheme ``spec()``
    #: already carries its resolved parameters.
    tunables: Optional["Tunables"] = None

    def cache_digest(self) -> str:
        """The persistent-cache key for this job."""
        from repro import __version__

        return digest_of(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "version": __version__,
                "job": self,
            }
        )

    def describe(self) -> str:
        """One-line human-readable form (progress lines, stats)."""
        opts = ",".join(f"{k}={v}" for k, v in self.trace_opts)
        flags = "".join(
            c
            for c, on in (
                ("w", self.profile_windows),
                ("s", self.collect_window_series),
                ("p", self.collect_pc_stats),
            )
            if on
        )
        parts = [self.bench, self.variant, self.label]
        if opts:
            parts.append(opts)
        if flags:
            parts.append(f"+{flags}")
        if self.tunables is not None and not self.tunables.is_default:
            parts.append(f"t:{self.tunables.short_digest()}")
        return "/".join(parts)


def job_key(
    bench: str,
    scheme: Optional["NdcScheme"] = None,
    variant: str = "original",
    *,
    scale: float,
    config_digest: str,
    tunables: Optional["Tunables"] = None,
    label: Optional[str] = None,
    trace_opts: Optional[Mapping[str, object]] = None,
    **flags: bool,
) -> JobKey:
    """The one builder of :class:`JobKey`\\ s: the interactive drivers
    (:class:`~repro.analysis.experiments.ExperimentRunner`) and the
    campaign units (:class:`~repro.campaign.SweepUnit`) both call it,
    so a sweep and a driver can never fork a cache entry.

    ``scheme=None`` is the conventional baseline.  The ``"original"``
    variant runs no compiler pass, so it carries no tunables (baselines
    are shared across calibrations); the label defaults to the scheme's
    name.  ``tunables`` is the *resolved* record (see
    :func:`repro.tuning.resolve_tunables`); ``flags`` are the
    collection switches (``profile_windows``, ...).
    """
    return JobKey(
        bench=bench,
        variant=variant,
        scheme_spec=scheme.spec() if scheme is not None else None,
        label=label or (scheme.name if scheme is not None else "original"),
        trace_opts=tuple(sorted(trace_opts.items())) if trace_opts else (),
        scale=scale,
        config_digest=config_digest,
        tunables=None if variant == "original" else tunables,
        **flags,
    )


def trace_signature(cfg: ArchConfig, key: JobKey) -> tuple:
    """The part of a job's identity that determines its trace (the
    process pool ships jobs sharing one as one chunk)."""
    return (key.bench, key.variant, key.scale, cfg, key.tunables,
            key.trace_opts)
