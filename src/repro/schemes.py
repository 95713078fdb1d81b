"""Runtime NDC decision schemes.

The simulator consults a scheme at every two-operand compute.  The
schemes reproduce every bar of the paper's Fig. 4:

* :class:`NoNdc` — the baseline ("original") execution.
* :class:`WaitForever` — "Default": offload and wait until the second
  operand arrives, however long that takes (bounded only by the
  structural hard cap).  Paper: −16.7 % (a slowdown).
* :class:`WaitFraction` — "Wait(x%)": wait at most x % of the maximum
  trackable arrival window (the 500-cycle truncation of Fig. 2).
* :class:`LastWait` — per-PC last-value predictor of the arrival
  window; wait at most the predicted window.  Paper: −4.3 %.
* :class:`OracleScheme` — future-knowledge upper bound: offloads only
  when NDC (at the best station) beats conventional execution *and*
  no operand is reused afterwards.  Paper: +29.3 %.
* :class:`CompilerDirected` — executes the compiler's PRE_COMPUTE
  annotations (Algorithms 1/2 output) and leaves plain COMPUTEs on the
  core.  Paper: +22.5 % (Alg. 1) and +25.2 % (Alg. 2).

Beyond the paper (PAPERS.md related work), two more bars make the
lineup a real shootout:

* ``"coda"`` — CODA-style computation/data co-location: the placement
  pass of :mod:`repro.core.layout` re-bases operand arrays so chains
  land on one memory-side station, then Algorithm 2 schedules over the
  co-located layout (a compiler scheme: :class:`CompilerDirected` on
  the ``"coda"`` trace variant).
* :class:`NmpoScheme` (``"nmpo"``) — NMPO-style profile-guided
  offload: an instrumented warm-up run is mined (via the typed event
  stream) for per-site completion rates and waits, and only sites the
  profile proves profitable are offloaded — a realizable approximation
  of the oracle.

Every bar label lives in the :data:`SCHEMES` registry;
:func:`build_lineup` resolves label sequences to
:class:`SchemeEntry` tuples, and the named casts every layer above uses
(:data:`DEFAULT_LINEUP`, :data:`HEADLINE_LINEUP`,
:data:`SHOOTOUT_LINEUP`, :data:`COMPARE_LINEUP`) are defined here
once.

A scheme returns a :class:`Decision`; the simulator then simulates the
chosen path (including service-table capacity, time-outs, and fallback
penalties).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.arch.stats import NEVER
from repro.config import ArchConfig, NdcComponentMask, NdcLocation
from repro.core.tunables import DEFAULT_TUNABLES, Tunables
from repro.isa import OpKind, Trace, TraceOp


@dataclass(slots=True)
class StationCandidate:
    """One potential NDC station for a given compute.

    ``avail_x``/``avail_y`` are absolute cycles at which each operand is
    (or will be) available at the station; :data:`~repro.arch.stats.NEVER`
    means the operand will not show up there.  ``pkg_arrival`` is when
    the NDC compute package reaches the station, ``d_result`` the cost
    of forwarding the one-word result to its consumer, and
    ``extra_latency`` any in-station access cost (e.g. the L2 probe or
    the DRAM row access for in-bank compute).
    """

    location: NdcLocation
    node: int
    unit_key: tuple
    avail_x: int
    avail_y: int
    pkg_arrival: int
    d_result: int
    extra_latency: int = 0
    #: head-of-line clearance of the station's in-order service table at
    #: decision time: no compute can issue there before this cycle
    hol: int = 0
    #: hardware bound on waiting at this station (time-out register /
    #: global wait ceiling; link-buffer residence window for NETWORK).
    #: A park whose required wait exceeds this is cut short by hardware.
    wait_cap: int = NEVER

    @property
    def ready(self) -> int:
        return max(self.avail_x, self.avail_y)

    @property
    def first_avail(self) -> int:
        return min(self.avail_x, self.avail_y)

    @property
    def window(self) -> int:
        if self.avail_x >= NEVER or self.avail_y >= NEVER:
            return NEVER
        return abs(self.avail_x - self.avail_y)

    def completion(self, op_latency: int = 1) -> int:
        """Cycle the consumer sees the result, if the wait is tolerated."""
        if self.ready >= NEVER:
            return NEVER
        start = max(self.pkg_arrival, self.ready, self.hol)
        return start + self.extra_latency + op_latency + self.d_result


class ComputeContext:
    """Everything a scheme may inspect when deciding about one compute.

    ``candidates`` is a sequence in the paper's trial order.
    ``conv_completion`` is the absolute completion cycle if the compute
    runs on the core; it may be given as a zero-argument callable,
    which is called the first time the field is read.  The default
    engine passes its on-demand pricing for both
    (:class:`~repro.arch.candidates.ComputePricing`): iterating the
    candidates builds each station group only when the loop reaches it,
    and the two operand estimates behind ``conv_completion`` run only if
    the scheme reads the field.  A context is valid only while the
    scheme decides.
    """

    __slots__ = (
        "op", "core", "now", "candidates", "l1_hit_x", "l1_hit_y", "_conv",
    )

    def __init__(
        self,
        op: TraceOp,
        core: int,
        now: int,
        conv_completion: Union[int, Callable[[], int]],
        candidates: Sequence[StationCandidate],
        l1_hit_x: bool,
        l1_hit_y: bool,
    ):
        self.op = op
        self.core = core
        self.now = now
        self._conv = conv_completion
        self.candidates = candidates
        self.l1_hit_x = l1_hit_x
        self.l1_hit_y = l1_hit_y

    @property
    def conv_completion(self) -> int:
        conv = self._conv
        if callable(conv):
            conv = self._conv = conv()
        return conv

    @property
    def conv_cost(self) -> int:
        return self.conv_completion - self.now


@dataclass(slots=True)
class Decision:
    """What to do with this compute."""

    offload: bool
    station: Optional[StationCandidate] = None
    wait_limit: int = 0            #: max cycles to wait at the station
    skip_reason: Optional[str] = None  #: for stats: 'policy', 'local_hit', 'no_station'
    #: whether the package honors the memory-side directory check (an
    #: upstream-cached operand provably cannot arrive, so the package
    #: bounces).  The blind waiting strategies of Section 4 are limit
    #: studies of *waiting itself* and ignore the check.
    respect_residency_check: bool = True


CONVENTIONAL = Decision(False, skip_reason=None)

# The former module globals ``HARD_WAIT_CAP`` / ``MAX_TRACKED_WINDOW``
# are fields of :class:`~repro.core.tunables.Tunables`
# (``hard_wait_cap`` / ``max_tracked_window``); their deprecation shims
# served out their window and were removed.


class NdcScheme:
    """Base class; default behaviour is fully conventional.

    Schemes are consulted only for computes that pass the hardware's
    local-L1 probe (Fig. 1) — the simulator runs probe-hit computes on
    the core before any policy applies.
    """

    name = "base"

    def __init__(self, tunables: Optional[Tunables] = None):
        """Parameter-free schemes ignore ``tunables``; accepting it
        lets every scheme class serve as a uniform factory
        (``cls(tunables=...)``) for the lineup builders."""

    def decide(self, ctx: ComputeContext) -> Decision:
        raise NotImplementedError

    def prepare(self, cfg: ArchConfig, trace: Trace) -> None:
        """Pre-run hook: the runtime calls this once per job, after the
        trace is built and before the simulation starts (the seam is
        :func:`repro.runtime.parallel.execute_job`, which every
        execution path — serial, pool, batch — flows through).

        Most schemes need no preparation; profile-guided schemes
        (:class:`NmpoScheme`) run their instrumented warm-up here."""

    def observe_window(self, pc: int, window: int) -> None:
        """Feedback hook: the actual arrival window of the compute just
        executed (used by predictive schemes)."""

    def reset(self) -> None:
        """Clear any cross-run state (predictor tables etc.)."""

    def spec(self) -> tuple:
        """Canonical, picklable description of this scheme.

        ``scheme_from_spec(s.spec())`` must reconstruct a behaviourally
        identical scheme — the runtime uses specs both as cache-key
        components and to rebuild schemes inside pool workers.
        Parameterized schemes override this to include their arguments.
        """
        return (type(self).__name__,)


class NoNdc(NdcScheme):
    """Baseline: every compute executes conventionally on its core."""

    name = "original"

    def decide(self, ctx: ComputeContext) -> Decision:
        return CONVENTIONAL


def _first_station(ctx: ComputeContext) -> Optional[StationCandidate]:
    """The station a blind (non-oracle) scheme parks at.

    Following the Section 2 package flow, the package checks the link
    buffers *in passing* (a meet there either happens within the buffer
    residence window or not at all) and then parks where the first
    operand's journey ends — its L2 home bank if the line is (or is
    becoming) L2-resident, else the memory side.  Whether and when the
    second operand will show up there is unknown to the scheme — that
    is exactly what makes blind waiting lose.

    One scan in trial order (each location appears at most once), so
    on-demand candidates are built only up to the station chosen.
    """
    for cand in ctx.candidates:
        if cand.location == NdcLocation.NETWORK:
            if cand.window < NEVER:
                return cand  # an in-passing link-buffer meet is available
        elif cand.avail_x < NEVER:
            return cand
    for cand in ctx.candidates:
        if cand.avail_y < NEVER:
            return cand
    return None


def _resolve_tunables(tunables: Optional[Tunables]) -> Tunables:
    return tunables if tunables is not None else DEFAULT_TUNABLES


class WaitForever(NdcScheme):
    """Offload everything; wait (up to the structural cap) for the partner."""

    name = "wait-forever"

    def __init__(
        self,
        wait_cap: Optional[int] = None,
        tunables: Optional[Tunables] = None,
    ):
        t = _resolve_tunables(tunables)
        self.wait_cap = wait_cap if wait_cap is not None else t.hard_wait_cap

    def spec(self) -> tuple:
        return ("WaitForever", self.wait_cap)

    def decide(self, ctx: ComputeContext) -> Decision:
        cand = _first_station(ctx)
        if cand is None:
            return Decision(False, skip_reason="no_station")
        return Decision(
            True, cand, wait_limit=self.wait_cap,
            respect_residency_check=False,
        )


class WaitFraction(NdcScheme):
    """Wait at most ``percent``% of the maximum trackable arrival window."""

    def __init__(
        self,
        percent: float,
        max_window: Optional[int] = None,
        tunables: Optional[Tunables] = None,
    ):
        if not 0 < percent <= 100:
            raise ValueError("percent must be in (0, 100]")
        t = _resolve_tunables(tunables)
        self.percent = percent
        self.max_window = (
            max_window if max_window is not None else t.max_tracked_window
        )
        self.name = f"wait-{percent:g}%"
        self._limit = max(1, int(self.max_window * percent / 100.0))

    def spec(self) -> tuple:
        return ("WaitFraction", self.percent, self.max_window)

    def decide(self, ctx: ComputeContext) -> Decision:
        cand = _first_station(ctx)
        if cand is None:
            return Decision(False, skip_reason="no_station")
        return Decision(
            True, cand, wait_limit=self._limit, respect_residency_check=False
        )


class LastWait(NdcScheme):
    """Per-PC last-value predictor: assume the next arrival window equals
    the previous one for the same static instruction (Section 4.4)."""

    name = "last-wait"

    def __init__(
        self,
        slack: Optional[int] = None,
        max_window: Optional[int] = None,
        tunables: Optional[Tunables] = None,
    ):
        t = _resolve_tunables(tunables)
        #: small tolerance added to the predicted window
        self.slack = slack if slack is not None else t.last_wait_slack
        #: prediction saturation (Fig. 2's tracking truncation)
        self.max_window = (
            max_window if max_window is not None else t.max_tracked_window
        )
        self._last: Dict[int, int] = {}

    def spec(self) -> tuple:
        return ("LastWait", self.slack, self.max_window)

    def decide(self, ctx: ComputeContext) -> Decision:
        cand = _first_station(ctx)
        if cand is None:
            return Decision(False, skip_reason="no_station")
        predicted = self._last.get(ctx.op.pc)
        if predicted is None:
            # First encounter: no prediction; a short probe wait.
            return Decision(
                True, cand, wait_limit=self.slack, respect_residency_check=False
            )
        if predicted >= self.max_window:
            # Predicted "never" -> do not offload at all.
            return Decision(False, skip_reason="policy")
        return Decision(
            True, cand, wait_limit=predicted + self.slack,
            respect_residency_check=False,
        )

    def observe_window(self, pc: int, window: int) -> None:
        self._last[pc] = min(window, self.max_window)

    def reset(self) -> None:
        self._last.clear()


class MarkovWait(NdcScheme):
    """First-order Markov predictor over bucketed windows (the paper notes
    it performs no better than last-value)."""

    name = "markov-wait"

    def __init__(
        self,
        slack: Optional[int] = None,
        max_window: Optional[int] = None,
        tunables: Optional[Tunables] = None,
    ):
        t = _resolve_tunables(tunables)
        self.slack = slack if slack is not None else t.last_wait_slack
        self.max_window = (
            max_window if max_window is not None else t.max_tracked_window
        )
        #: bucket upper bounds; the last bucket is the tracking ceiling
        self._BUCKETS = (0, 5, 10, 20, 50, 100, 200, self.max_window)
        self._last_bucket: Dict[int, int] = {}
        self._table: Dict[tuple, Dict[int, int]] = {}

    def spec(self) -> tuple:
        return ("MarkovWait", self.slack, self.max_window)

    def _bucket(self, window: int) -> int:
        for i, b in enumerate(self._BUCKETS):
            if window <= b:
                return i
        return len(self._BUCKETS)  # "never"

    def decide(self, ctx: ComputeContext) -> Decision:
        cand = _first_station(ctx)
        if cand is None:
            return Decision(False, skip_reason="no_station")
        prev = self._last_bucket.get(ctx.op.pc)
        if prev is None:
            return Decision(
                True, cand, wait_limit=self.slack, respect_residency_check=False
            )
        counts = self._table.get((ctx.op.pc, prev))
        if not counts:
            return Decision(True, cand, wait_limit=self.slack)
        best = max(counts, key=counts.__getitem__)
        if best >= len(self._BUCKETS):
            return Decision(False, skip_reason="policy")
        return Decision(
            True, cand, wait_limit=self._BUCKETS[best] + self.slack,
            respect_residency_check=False,
        )

    def observe_window(self, pc: int, window: int) -> None:
        b = self._bucket(window)
        prev = self._last_bucket.get(pc)
        if prev is not None:
            self._table.setdefault((pc, prev), {}).setdefault(b, 0)
            self._table[(pc, prev)][b] += 1
        self._last_bucket[pc] = b

    def reset(self) -> None:
        self._last_bucket.clear()
        self._table.clear()


class OracleScheme(NdcScheme):
    """Future-knowledge upper bound (Section 4.4, second bar).

    Picks the station with the earliest completion; offloads only when
    that strictly beats conventional execution and (selectivity rule)
    no operand line is reused after the computation — the oracle favors
    data locality over NDC on any reuse (k = 0).
    """

    name = "oracle"

    def __init__(
        self,
        reuse_aware: bool = True,
        margin: Optional[int] = None,
        wait_weight: Optional[float] = None,
        tunables: Optional[Tunables] = None,
    ):
        t = _resolve_tunables(tunables)
        if margin is None:
            margin = t.oracle_margin
        if wait_weight is None:
            wait_weight = t.oracle_wait_weight
        self.reuse_aware = reuse_aware
        #: required head-room over conventional execution.  Even with
        #: future knowledge a per-op win can be a global loss: offloaded
        #: lines skip the L1/L2 fills a conventional execution would
        #: have done, so *other* cores sharing those lines later pay
        #: memory latency instead of cache hits.  The margin makes the
        #: oracle demand enough head-room to cover that externality.
        self.margin = margin
        #: how much of the occupancy externality (cycles the package
        #: holds an in-order service-table slot while waiting) to charge
        self.wait_weight = wait_weight

    def spec(self) -> tuple:
        return ("OracleScheme", self.reuse_aware, self.margin, self.wait_weight)

    def decide(self, ctx: ComputeContext) -> Decision:
        if self.reuse_aware and (ctx.op.x_reused or ctx.op.y_reused):
            return Decision(False, skip_reason="policy")
        best: Optional[StationCandidate] = None
        best_t = ctx.conv_completion - self.margin
        for cand in ctx.candidates:
            t = cand.completion()
            if t >= NEVER:
                continue
            # Hardware cuts any park at the station's wait cap; with
            # future knowledge the oracle never sends a package the
            # time-out register is guaranteed to bounce — neither the
            # wait for the first operand nor the partner wait may
            # exceed it.
            if cand.first_avail - cand.pkg_arrival > cand.wait_cap:
                continue
            if (cand.ready - max(cand.pkg_arrival, cand.first_avail)
                    > cand.wait_cap):
                continue
            # Waiting occupies a slot in the station's *in-order* service
            # table, stalling every package behind — the paper's oracle
            # therefore never waits beyond the breakeven point.  Charge
            # the occupancy as part of the cost.
            wait = max(0, cand.ready - max(cand.pkg_arrival, cand.first_avail))
            t += int(self.wait_weight * wait)
            if t < best_t:
                best, best_t = cand, t
        if best is None:
            return Decision(False, skip_reason="policy")
        # The oracle programs the time-out register exactly (it knows the
        # future); the limit must cover the wait for the *first* operand
        # too, which the hardware also bounds.
        wait = max(0, best.ready - best.pkg_arrival)
        return Decision(True, best, wait_limit=wait)


class CompilerDirected(NdcScheme):
    """Executes compiler PRE_COMPUTE annotations.

    Plain COMPUTE ops run conventionally.  For PRE_COMPUTE ops the
    LD/ST local probe applies (Fig. 1), then the package tries the
    stations in the compiler's component mask, in trial order, with the
    compiler-programmed time-out register bounding the wait.
    """

    name = "compiler"

    def __init__(
        self,
        default_timeout: Optional[int] = None,
        tunables: Optional[Tunables] = None,
    ):
        t = _resolve_tunables(tunables)
        #: wait bound used when the pre-compute carries no timeout —
        #: compiler sets time-out registers near the typical breakeven.
        self.default_timeout = (
            default_timeout
            if default_timeout is not None
            else t.compiler_default_timeout
        )

    def spec(self) -> tuple:
        return ("CompilerDirected", self.default_timeout)

    def decide(self, ctx: ComputeContext) -> Decision:
        if ctx.op.kind != OpKind.PRE_COMPUTE:
            return CONVENTIONAL
        mask: NdcComponentMask = ctx.op.mask
        timeout = ctx.op.timeout or self.default_timeout
        # The package checks the allowed stations in path order and
        # computes at the first one where *both* operands are (or will
        # be) present — state the station hardware can see.  The LD/ST
        # unit also applies the compiler-programmed breakeven test
        # (Section 4.1): when the expected near-data completion no
        # longer beats conventional execution under the current queue
        # state, the offload is dropped.
        for cand in ctx.candidates:
            if not mask.allows(cand.location):
                continue
            if cand.ready < NEVER:
                if cand.completion() > ctx.conv_completion:
                    return Decision(False, skip_reason="policy")
                return Decision(True, cand, wait_limit=timeout)
        # No station can see both operands coming: park at the first
        # allowed station holding the first operand and hope (bounded by
        # the time-out register).
        for cand in ctx.candidates:
            if not mask.allows(cand.location):
                continue
            if cand.avail_x < NEVER or cand.avail_y < NEVER:
                return Decision(True, cand, wait_limit=timeout)
        return Decision(False, skip_reason="no_station")


# ======================================================================
# NMPO-style profile-guided offload (beyond-paper)
# ======================================================================

@dataclass(frozen=True)
class SiteProfile:
    """What the warm-up run observed at one static compute site."""

    issued: int = 0
    parked: int = 0
    completed: int = 0
    timed_out: int = 0
    bounced: int = 0
    #: worst wait among offloads that *completed* near-data (the
    #: profiled arrival-window bound the time-out register is set from)
    max_completed_wait: int = 0
    #: worst partner wait any park predicted it would need
    max_wait_needed: int = 0


class OffloadProfile:
    """Per-site offload statistics mined from a warm-up event stream.

    The profile is pure data, with a content :meth:`digest` that is
    deterministic across engine profiles and backends (the event
    stream itself is pinned profile-invariant by the differential
    suite).  :func:`warmup_profile` caches it module-wide per (trace
    object, config, cap), so jobs handed tracegen's one trace object
    share one warm-up.
    """

    def __init__(
        self,
        sites: Dict[int, SiteProfile],
        stall_pools: Dict[str, int],
    ):
        self.sites = dict(sites)
        self.stall_pools = dict(stall_pools)

    @classmethod
    def from_events(cls, events: Sequence) -> "OffloadProfile":
        """Mine a typed event stream (:mod:`repro.arch.events`)."""
        from repro.analysis.characterize import event_stall_pools

        acc: Dict[int, Dict[str, int]] = {}

        def site(pc: int) -> Dict[str, int]:
            s = acc.get(pc)
            if s is None:
                s = acc[pc] = {
                    "issued": 0, "parked": 0, "completed": 0,
                    "timed_out": 0, "bounced": 0,
                    "max_completed_wait": 0, "max_wait_needed": 0,
                }
            return s

        for ev in events:
            kind = ev.kind
            if kind == "offload_issued":
                site(ev.pc)["issued"] += 1
            elif kind == "offload_parked":
                s = site(ev.pc)
                s["parked"] += 1
                s["max_wait_needed"] = max(
                    s["max_wait_needed"], ev.wait_needed
                )
            elif kind == "offload_completed":
                s = site(ev.pc)
                s["completed"] += 1
                s["max_completed_wait"] = max(
                    s["max_completed_wait"], ev.waited
                )
            elif kind == "offload_timed_out":
                site(ev.pc)["timed_out"] += 1
            elif kind == "offload_bounced":
                site(ev.pc)["bounced"] += 1
        sites = {pc: SiteProfile(**vals) for pc, vals in acc.items()}
        return cls(sites, event_stall_pools(events))

    def canonical(self) -> Dict[str, object]:
        """Plain-JSON representation (the digest input)."""
        return {
            "sites": {
                str(pc): [
                    s.issued, s.parked, s.completed, s.timed_out,
                    s.bounced, s.max_completed_wait, s.max_wait_needed,
                ]
                for pc, s in sorted(self.sites.items())
            },
            "stall_pools": dict(sorted(self.stall_pools.items())),
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: (trace id, cfg, warm-up cap) -> (trace, mined profile).  Every job
#: of one benchmark, scale and config gets tracegen's one trace object,
#: so they share one warm-up per process; the entry holds the trace, so
#: its id is not reused while the entry lives.  Bounded FIFO.
_PROFILE_CACHE: Dict[tuple, Tuple[Trace, OffloadProfile]] = {}
_PROFILE_CACHE_MAX = 16


def clear_profile_cache() -> None:
    _PROFILE_CACHE.clear()


def warmup_profile(
    cfg: ArchConfig, trace: Trace, wait_cap: int
) -> OffloadProfile:
    """The mined profile of one instrumented warm-up simulation.

    The warm-up replays ``trace`` under an aggressive blind-offload
    policy (:class:`WaitForever` at ``wait_cap``) with the event bus
    attached, then mines the stream.  Runs at most once per (trace
    object, config, cap) while its cache entry lives.
    """
    key = (id(trace), cfg, wait_cap)
    entry = _PROFILE_CACHE.get(key)
    if entry is None:
        # Lazy import: the simulator imports this module.
        from repro.arch.events import EventBus
        from repro.arch.simulator import SystemSimulator

        bus = EventBus()
        sim = SystemSimulator(
            cfg, WaitForever(wait_cap=wait_cap), event_bus=bus
        )
        sim.run(trace)
        entry = (trace, OffloadProfile.from_events(bus.collected()))
        if len(_PROFILE_CACHE) >= _PROFILE_CACHE_MAX:
            _PROFILE_CACHE.pop(next(iter(_PROFILE_CACHE)))
        _PROFILE_CACHE[key] = entry
    return entry[1]


class NmpoScheme(NdcScheme):
    """NMPO-style profile-guided offload (beyond-paper).

    A realizable approximation of the oracle: instead of future
    knowledge, an instrumented warm-up run (:func:`warmup_profile`)
    supplies per-site ground truth — how often a blind offload at this
    static instruction actually completed near-data, and how long it
    had to wait.  Only sites whose profiled completion rate clears
    ``nmpo_hit_rate`` (with at least ``nmpo_min_samples`` attempts)
    are offloaded, with the time-out register programmed to the site's
    profiled worst completed wait plus ``nmpo_wait_slack``; the LD/ST
    breakeven test (as in :class:`CompilerDirected`) still drops
    offloads the current queue state has made unprofitable.

    The oracle's k = 0 selectivity rule applies here too: an offload
    whose operand lines are reused afterwards steals the L1/L2 fills
    those later accesses would have hit, so a per-site completion rate
    says nothing about global profit at reused sites.  The reuse flags
    are static compiler facts (the same ones Algorithm 2's reuse
    analysis produces), so vetoing on them keeps the scheme realizable.
    """

    name = "nmpo"

    def __init__(
        self,
        min_samples: Optional[int] = None,
        hit_rate: Optional[float] = None,
        wait_slack: Optional[int] = None,
        warmup_cap: Optional[int] = None,
        margin: Optional[int] = None,
        wait_weight: Optional[float] = None,
        tunables: Optional[Tunables] = None,
    ):
        t = _resolve_tunables(tunables)
        self.min_samples = (
            min_samples if min_samples is not None else t.nmpo_min_samples
        )
        self.hit_rate = hit_rate if hit_rate is not None else t.nmpo_hit_rate
        self.wait_slack = (
            wait_slack if wait_slack is not None else t.nmpo_wait_slack
        )
        #: the warm-up policy's structural wait cap (also bounds the
        #: time-out register the profile programs)
        self.warmup_cap = (
            warmup_cap if warmup_cap is not None else t.hard_wait_cap
        )
        #: the oracle's externality charges (Appendix J): head-room a
        #: visible win must clear (nmpo's own, smaller default — the
        #: profile gate already filters most of what the oracle's large
        #: margin catches) and the occupancy cost per waited cycle
        #: (shared knob with :class:`OracleScheme`).
        self.margin = margin if margin is not None else t.nmpo_margin
        self.wait_weight = (
            wait_weight if wait_weight is not None else t.oracle_wait_weight
        )
        self.profile: Optional[OffloadProfile] = None
        self._site_limits: Optional[Dict[int, int]] = None

    def spec(self) -> tuple:
        return ("NmpoScheme", self.min_samples, self.hit_rate,
                self.wait_slack, self.warmup_cap, self.margin,
                self.wait_weight)

    def prepare(self, cfg: ArchConfig, trace: Trace) -> None:
        self.attach_profile(warmup_profile(cfg, trace, self.warmup_cap))

    def attach_profile(self, profile: OffloadProfile) -> None:
        """Adopt a mined profile (the ``prepare`` body; split out so
        tests can inject synthetic profiles)."""
        self.profile = profile
        limits: Dict[int, int] = {}
        for pc, s in profile.sites.items():
            attempts = s.completed + s.timed_out + s.bounced
            if s.issued < self.min_samples or attempts == 0:
                continue
            if s.completed / attempts < self.hit_rate:
                continue
            limits[pc] = min(
                s.max_completed_wait + self.wait_slack, self.warmup_cap
            )
        self._site_limits = limits

    def decide(self, ctx: ComputeContext) -> Decision:
        if self._site_limits is None:
            # No profile attached (direct simulator use without the
            # runtime seam): nothing is proven profitable.
            return Decision(False, skip_reason="policy")
        if ctx.op.x_reused or ctx.op.y_reused:
            # Locality veto (the oracle's k = 0 selectivity rule): the
            # warm-up measured completion, not the reuse externality.
            return Decision(False, skip_reason="policy")
        limit = self._site_limits.get(ctx.op.pc)
        if limit is None:
            return Decision(False, skip_reason="policy")
        # Prefer a station that can already see both operands coming —
        # the same hardware-visible state CompilerDirected consults —
        # minimized over candidates under the oracle's externality
        # charges: the win must clear ``margin`` head-room and pay
        # ``wait_weight`` per cycle the package occupies an in-order
        # service-table slot.  A station whose required wait exceeds
        # the programmed register would just bounce; skip it.
        best: Optional[StationCandidate] = None
        best_t = ctx.conv_completion - self.margin
        for c in ctx.candidates:
            if c.ready >= NEVER:
                continue
            if c.ready - c.pkg_arrival > limit:
                continue
            wait = max(0, c.ready - max(c.pkg_arrival, c.first_avail))
            t = c.completion() + int(self.wait_weight * wait)
            if t < best_t:
                best, best_t = c, t
        if best is not None:
            return Decision(True, best, wait_limit=limit)
        cand = _first_station(ctx)
        if cand is None:
            return Decision(False, skip_reason="no_station")
        if cand.ready < NEVER:
            # Visible somewhere but profitable nowhere.
            return Decision(False, skip_reason="policy")
        if limit >= ctx.conv_cost:
            # Blind park whose programmed worst-case wait already costs
            # more than executing conventionally: the profile proved
            # the site *completes*, not that a wait this long profits.
            return Decision(False, skip_reason="policy")
        return Decision(True, cand, wait_limit=limit)


#: Reconstructable scheme classes, by spec head (see ``NdcScheme.spec``).
_SCHEME_REGISTRY: Dict[str, type] = {}


def register_scheme(cls: type) -> type:
    """Register a scheme class for spec-based reconstruction.

    Built-in schemes are pre-registered; user-defined subclasses that
    should survive the runtime's process-pool round trip (and address
    the persistent cache correctly) register themselves here.  A
    registered class must accept its ``spec()[1:]`` as positional
    constructor arguments.
    """
    _SCHEME_REGISTRY[cls.__name__] = cls
    return cls


for _cls in (NoNdc, WaitForever, WaitFraction, LastWait, MarkovWait,
             OracleScheme, CompilerDirected, NmpoScheme):
    register_scheme(_cls)


def scheme_from_spec(spec: Sequence) -> NdcScheme:
    """Rebuild a scheme from its canonical spec (inverse of ``spec()``)."""
    if not spec:
        raise ValueError("empty scheme spec")
    name, *args = spec
    cls = _SCHEME_REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown scheme spec {name!r}; register the class with "
            "repro.schemes.register_scheme"
        )
    return cls(*args)


# ======================================================================
# scheme construction (the single factory behind CLI / examples / tuning)
# ======================================================================

@dataclass(frozen=True)
class SchemeEntry:
    """One bar of an evaluation lineup.

    ``label`` is the human-facing bar name, ``variant`` the compiler
    trace variant the bar runs on (``"original"``, ``"alg1"``, ...),
    and ``factory`` builds a fresh scheme instance (schemes carry
    predictor state, so every simulation gets its own).
    """

    label: str
    variant: str
    factory: Callable[[], NdcScheme]

    def build(self) -> NdcScheme:
        return self.factory()

    def spec_key(self) -> tuple:
        """Canonical identity: (label, variant, scheme spec).

        The scheme spec carries every tunables-derived parameter as a
        *resolved* value, so two entries built under different tunables
        can never alias (satisfying the cache-keying contract).
        """
        return (self.label, self.variant, self.factory().spec())


#: The scheme registry: bar label -> (trace variant, factory taking the
#: tunables record).  Mirrors the workload-family registry
#: (:data:`repro.workloads.suite.FAMILIES`): every layer above — the
#: :mod:`repro.api` facade, the CLI ``--schemes`` flag, sweep specs,
#: the tuner — resolves labels through here, so registering a label
#: makes it available everywhere at once.  Labels accept both the
#: paper's bar names (``"default"``, ``"algorithm-1"``) and the short
#: aliases (``"wait-forever"``, ``"alg1"``).
SCHEMES: Dict[str, Tuple[str, Callable[[Optional[Tunables]], NdcScheme]]] = {
    "default": ("original", lambda t: WaitForever(tunables=t)),
    "wait-forever": ("original", lambda t: WaitForever(tunables=t)),
    "oracle": ("original", lambda t: OracleScheme(tunables=t)),
    "wait-5%": ("original", lambda t: WaitFraction(5, tunables=t)),
    "wait-10%": ("original", lambda t: WaitFraction(10, tunables=t)),
    "wait-25%": ("original", lambda t: WaitFraction(25, tunables=t)),
    "wait-50%": ("original", lambda t: WaitFraction(50, tunables=t)),
    "last-wait": ("original", lambda t: LastWait(tunables=t)),
    "markov-wait": ("original", lambda t: MarkovWait(tunables=t)),
    "algorithm-1": ("alg1", lambda t: CompilerDirected(tunables=t)),
    "alg1": ("alg1", lambda t: CompilerDirected(tunables=t)),
    "algorithm-2": ("alg2", lambda t: CompilerDirected(tunables=t)),
    "alg2": ("alg2", lambda t: CompilerDirected(tunables=t)),
    "coda": ("coda", lambda t: CompilerDirected(tunables=t)),
    "nmpo": ("original", lambda t: NmpoScheme(tunables=t)),
    "original": ("original", lambda t: NoNdc()),
}

#: Every registered bar label, in registry order.
SCHEME_LABELS = tuple(SCHEMES)

#: The paper's Fig. 4 bars, in paper order (:func:`build_lineup`'s
#: default cast; pinned byte-identical by the golden headline +
#: differential suites).
DEFAULT_LINEUP = (
    "default", "oracle", "wait-5%", "wait-10%", "wait-25%",
    "wait-50%", "last-wait", "algorithm-1", "algorithm-2",
)

#: The four headline bars: the default scheme axis of a sweep and the
#: bars the tuner scores (they carry every hard Fig. 4 constraint).
HEADLINE_LINEUP = ("default", "oracle", "algorithm-1", "algorithm-2")

#: The seven-scheme shootout: the headline cast plus the beyond-paper
#: schemes (the ``"original"`` baseline is the implicit improvement
#: denominator everywhere).
SHOOTOUT_LINEUP = HEADLINE_LINEUP + ("coda", "nmpo")

#: The headline bars of ``repro compare`` and :func:`repro.quick_compare`.
COMPARE_LINEUP = ("wait-forever", "oracle", "algorithm-1", "algorithm-2")


def build_scheme(
    label: str, tunables: Optional[Tunables] = None
) -> SchemeEntry:
    """Resolve a bar label to a :class:`SchemeEntry` under ``tunables``.

    This is the *single* construction path shared by the CLI, the
    example drivers, and the tuner — the historical per-caller kwargs
    plumbing collapsed into one place.
    """
    try:
        variant, factory = SCHEMES[label]
    except KeyError:
        known = ", ".join(sorted(SCHEMES))
        raise ValueError(
            f"unknown scheme label {label!r} (known: {known})"
        ) from None
    return SchemeEntry(label, variant, lambda: factory(tunables))


def build_lineup(
    labels: Sequence[str] = DEFAULT_LINEUP,
    tunables: Optional[Tunables] = None,
) -> Tuple["SchemeEntry", ...]:
    """Resolve a label sequence to entries through :data:`SCHEMES`."""
    return tuple(build_scheme(label, tunables) for label in labels)
