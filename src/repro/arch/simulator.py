"""The manycore system simulator (orchestration layer).

Replays per-core instruction traces over the architecture models
(caches, NoC, memory controllers, NDC units) under a pluggable NDC
scheme (:mod:`repro.schemes`), producing the cycle counts and the
arrival-window/breakeven statistics the paper's evaluation is built on.

Execution model
---------------
Cores are in-order with a per-core virtual clock; the two operand loads
of a compute overlap (2-issue), everything else serializes.  Cores are
interleaved in global-time order (a min-heap over core clocks), so
contention on shared resources — NoC links, L2 bank ports, DRAM banks,
NDC service tables — is resolved in approximately the right order.

Shared resources are modeled as reserve/commit interval timelines
(:mod:`repro.arch.engine`): a committed op claims the earliest *gap*
that fits on each resource, so a long op that commits usage deep into
the future no longer blocks other cores' temporally-earlier ops.  This
retires the seed's commit-ahead approximation, which over-serialized
bursts of concurrent long offloads behind scalar busy-until clocks; the
old append-only behaviour survives only as a test-only timeline mode.

Layering
--------
:class:`SystemSimulator` is a thin orchestrator over four layers that
share one :class:`~repro.arch.machine.MachineState`:

* :class:`~repro.arch.access.AccessPath` — loads/stores/conventional
  computes through L1 -> NoC -> L2 (one lookup port per bank) -> DRAM,
  each step in committed and pure-estimate flavours;
* :class:`~repro.arch.candidates.CandidateBuilder` — the per-compute
  :class:`~repro.schemes.StationCandidate` list in the paper's trial
  order (network router -> L2 bank -> memory controller -> DRAM bank);
  the default engine builds it on demand, as the scheme reads it;
* :class:`~repro.arch.ndc_exec.NdcExecutor` — the full offload life
  cycle: package injection (offload-table capacity), service-table
  admission, bounded waiting, the near-data compute, the one-word
  result return, and the timed-out fallback that charges the wasted
  wait plus the conventional fetches (how naive waiting loses, Fig. 4);
* :class:`~repro.arch.profiling.Profiler` — the Section 4 arrival-
  window / breakeven records.

Offloaded operand lines are *not* installed in the requesting L1 — the
data-locality cost of NDC that Algorithm 2 navigates (Fig. 16).

An optional :class:`~repro.arch.events.EventBus` threads through every
layer; when attached, offload transitions and contention stalls are
published as typed events (``repro bench --trace-events``).  Disabled
runs construct no event objects at all.

Engines
-------
Two engine profiles compose the same layers from different classes
(:data:`ENGINES`).  ``"optimized"``, the default, runs the ``Fused*``
subclass of each layer and this class's own :meth:`SystemSimulator.run`
and ``_exec_compute``.  ``"reference"`` runs the base classes and the
frozen replay loop: the oracle the differential harness
(``tests/test_differential.py``) holds the default to, cycle for cycle.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from types import MethodType
from typing import Dict, List, Optional

from repro.arch.access import AccessPath, FusedAccessPath
from repro.arch.candidates import CandidateBuilder, FusedCandidateBuilder
from repro.arch.engine import OPTIMIZED, REFERENCE, check_engine_profile
from repro.arch.events import EventBus
from repro.arch.machine import FusedMachineState, MachineState
from repro.arch.ndc_exec import NdcExecutor
from repro.arch.profiling import Profiler
from repro.arch.stats import NEVER, SimStats
from repro.config import ArchConfig
from repro.isa import OpKind, Trace, TraceOp
from repro.schemes import ComputeContext, NdcScheme, NoNdc


@dataclass(frozen=True, eq=True)
class SimulationResult:
    """Output of one simulation run.

    The result is a plain value object: picklable (the runtime's
    persistent cache and process-pool fan-out depend on it) and
    comparable field-by-field (the determinism test suite depends on
    that).  ``pc_stats`` carries the per-PC L1/L2 hit-miss ground truth
    when the run collected it (Table 2), so cached results can serve
    the CME-accuracy experiment without retaining the simulator.
    """

    scheme: str
    stats: SimStats
    config: ArchConfig
    #: pc -> [l1 hits, l1 misses, l2 hits, l2 misses]; None unless the
    #: run was started with ``collect_pc_stats=True``
    pc_stats: Optional[Dict[int, List[int]]] = None

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles


class SystemSimulator:
    """Replay traces over the modeled manycore.

    Parameters
    ----------
    cfg:
        Machine description.
    scheme:
        NDC decision policy; defaults to the conventional baseline.
    profile_windows:
        When True, record an arrival-window/breakeven observation for
        every (compute, location) pair — the Section 4 quantification.
    collect_window_series:
        When True, keep the per-PC sequence of observed windows (Fig. 5).
    engine_profile:
        ``"optimized"`` (default) runs the fused hot paths: memoized
        address facts, a one-loop NoC travel, on-demand pricing (a
        compute prices only the operand estimates and station
        candidates its scheme reads, and nothing on a local hit), and a
        replay loop that skips the heap round trip while a core stays
        earliest; ``"reference"`` runs the frozen pre-optimization
        implementation, which prices every compute in full before the
        local-hit check.  Profiles are *performance
        knobs only*: the differential harness
        (``tests/test_differential.py``) pins both to cycle-exact
        identical :class:`SimulationResult`s, and they never enter the
        runtime's cache keys.
    event_bus:
        Optional instrumentation bus; offload/stall events are
        published onto it as they happen.
    """

    def __init__(
        self,
        cfg: ArchConfig,
        scheme: Optional[NdcScheme] = None,
        profile_windows: bool = False,
        collect_window_series: bool = False,
        collect_pc_stats: bool = False,
        engine_profile: str = OPTIMIZED,
        event_bus: Optional[EventBus] = None,
    ):
        check_engine_profile(engine_profile)
        machine_cls, access_cls, candidates_cls, loop = ENGINES[engine_profile]
        self.cfg = cfg
        self.scheme = scheme or NoNdc()
        self.profile_windows = profile_windows
        self.collect_window_series = collect_window_series
        self.collect_pc_stats = collect_pc_stats
        self.machine = machine_cls(
            cfg,
            bus=event_bus,
            collect_pc_stats=collect_pc_stats,
            collect_window_series=collect_window_series,
            profile=engine_profile,
        )
        self.access_path = access_cls(self.machine)
        self.candidate_builder = candidates_cls(self.machine)
        self.ndc_executor = NdcExecutor(
            self.machine, self.access_path, self.scheme
        )
        self.profiler = Profiler(self.machine)
        if loop is not None:
            # The frozen replay loop and compute step, bound over the
            # class's fused ones for this instance only.
            self.run, self._exec_compute = (MethodType(f, self) for f in loop)
        else:
            self.machine.keep_journeys = profile_windows
            self._scheme_is_nondc = isinstance(self.scheme, NoNdc)
            self._pricing = self.candidate_builder.pricing
            self._pricing.estimate = self.access_path.estimate

    # ==================================================================
    # shared-state views (stable API; tests and analysis rely on these)
    # ==================================================================
    @property
    def mesh(self):
        return self.machine.mesh

    @property
    def network(self):
        return self.machine.network

    @property
    def l1(self):
        return self.machine.l1

    @property
    def l2(self):
        return self.machine.l2

    @property
    def mcs(self):
        return self.machine.mcs

    @property
    def stats(self) -> SimStats:
        return self.machine.stats

    @property
    def pc_stats(self) -> Dict[int, List[int]]:
        return self.machine.pc_stats

    # ==================================================================
    # compute execution
    # ==================================================================
    def _exec_compute(self, core: int, op: TraceOp, now: int) -> int:
        """Execute a COMPUTE/PRE_COMPUTE; returns its completion cycle.

        Prices only what the decision reads: a local hit prices nothing,
        and the scheme reads station candidates and the conventional
        estimate on demand (:class:`~repro.arch.candidates.ComputePricing`).
        With ``profile_windows`` every compute is priced in full for the
        profiler first.
        """
        m = self.machine
        stats = m.stats
        stats.computes += 1
        l1 = m.l1[core]
        l1_hit_x = l1.probe(op.addr)
        l1_hit_y = l1.probe(op.addr2)
        # LD/ST-unit local probe (Fig. 1): with an operand already in the
        # local L1, the computation always runs on the core — hardware
        # skips the offload path before any scheme policy applies.
        local_hit = (l1_hit_x or l1_hit_y) and not self._scheme_is_nondc
        if not local_hit or self.profile_windows:
            pricing = self._pricing
            pricing.reset(core, op, now, l1_hit_x, l1_hit_y)
            # Pricing is purely observational (nothing is claimed until
            # the decision executes), so reserve-phase travel queries
            # repeated with identical arguments are memoized until the
            # decision; the memo dies before any commit.
            m._pure_memo = {}
            try:
                if self.profile_windows:
                    self.profiler.record(
                        op, pricing.conv_completion() - now, now,
                        pricing.force(),
                    )
                if not local_hit:
                    if pricing.any_ready():
                        stats.opportunities_seen += 1
                    decision = self.scheme.decide(ComputeContext(
                        op, core, now, pricing.conv_completion, pricing,
                        l1_hit_x, l1_hit_y,
                    ))
            finally:
                m._pure_memo = None
        if local_hit:
            stats.ndc.skipped_local_hit += 1
            stats.ndc.conventional += 1
            return self._exec_conventional(core, op, now)

        if decision.offload and decision.station is not None:
            completion = self.ndc_executor.exec_ndc(core, op, now, decision)
        else:
            reason = decision.skip_reason
            if reason == "local_hit":
                stats.ndc.skipped_local_hit += 1
            elif reason == "policy":
                stats.ndc.skipped_policy += 1
            elif reason == "no_station":
                stats.ndc.skipped_no_station += 1
            stats.ndc.conventional += 1
            completion = self._exec_conventional(core, op, now)
        return completion

    def _exec_conventional(self, core: int, op: TraceOp, now: int) -> int:
        return self.access_path.conventional(core, op, now)

    # ==================================================================
    # main loop
    # ==================================================================
    def run(self, trace: Trace) -> SimulationResult:
        """Replay ``trace`` (one op stream per core) to completion."""
        m = self.machine
        if len(trace) > m.mesh.num_nodes:
            raise ValueError(
                f"trace has {len(trace)} streams but the mesh has only "
                f"{m.mesh.num_nodes} nodes"
            )
        self.scheme.reset()
        clocks = [0] * len(trace)
        cursors = [0] * len(trace)
        heap = [(0, core) for core, s in enumerate(trace) if s]
        heapq.heapify(heap)

        stats = m.stats
        access = self.access_path.access
        store = self.access_path.store
        exec_compute = self._exec_compute
        heappush = heapq.heappush
        heappop = heapq.heappop
        LOAD = OpKind.LOAD
        STORE = OpKind.STORE
        WORK = OpKind.WORK

        # Watermark trimming of the link interval lists.  Heap pop
        # times are non-decreasing and every timeline query an op issues
        # carries a time argument >= its pop time, so an interval whose
        # end is <= the current pop time can never delay a grant again.
        # Dropping such dead head intervals keeps the per-query walks
        # short on long replays.  Each list keeps its last interval, so
        # the tail (``free_at``, ``link_utilization``) stays exact.
        trim_lists = list(zip(m._lstarts, m._lends))
        pops = 0

        while heap:
            now, core = heappop(heap)
            pops += 1
            if pops >= 256:
                pops = 0
                for t_starts, t_ends in trim_lists:
                    last = len(t_ends) - 1
                    if last > 0 and t_ends[0] <= now:
                        k = bisect_right(t_ends, now, 0, last)
                        del t_starts[:k]
                        del t_ends[:k]
            stream = trace[core]
            n = len(stream)
            i = cursors[core]
            if i >= n:
                continue
            while True:
                op = stream[i]
                i += 1
                stats.instructions += 1
                kind = op.kind
                if kind == LOAD:
                    completion = access(
                        core, op.addr, now, True, pc=op.pc
                    ).completion
                elif kind == STORE:
                    completion = store(core, op.addr, now)
                elif kind == WORK:
                    completion = now + op.cost
                else:
                    completion = exec_compute(core, op, now)
                if i >= n:
                    cursors[core] = i
                    clocks[core] = completion
                    break
                # Run extension: when this core's next event would be
                # popped next anyway (heap order, ties on core id), skip
                # the push/pop round trip — exactly heapq's pop order.
                if not heap or (completion, core) <= heap[0]:
                    now = completion
                    continue
                cursors[core] = i
                clocks[core] = completion
                heappush(heap, (completion, core))
                break

        stats.per_core_cycles = clocks
        stats.total_cycles = max(clocks) if clocks else 0
        stats.resource_util = m.resource_utilization()
        return SimulationResult(
            self.scheme.name,
            stats,
            self.cfg,
            dict(m.pc_stats) if self.collect_pc_stats else None,
        )

    # ==================================================================
    # the reference engine (frozen oracle; bound by __init__)
    # ==================================================================
    def _reference_run(self, trace: Trace) -> SimulationResult:
        """Replay ``trace`` (one op stream per core) to completion."""
        m = self.machine
        if len(trace) > m.mesh.num_nodes:
            raise ValueError(
                f"trace has {len(trace)} streams but the mesh has only "
                f"{m.mesh.num_nodes} nodes"
            )
        self.scheme.reset()
        clocks = [0] * len(trace)
        cursors = [0] * len(trace)
        heap = [(0, core) for core, s in enumerate(trace) if s]
        heapq.heapify(heap)

        while heap:
            now, core = heapq.heappop(heap)
            stream = trace[core]
            i = cursors[core]
            if i >= len(stream):
                continue
            op = stream[i]
            cursors[core] = i + 1
            m.stats.instructions += 1

            kind = op.kind
            if kind == OpKind.WORK:
                completion = now + op.cost
            elif kind == OpKind.LOAD:
                completion = self.access_path.access(
                    core, op.addr, now, commit=True, pc=op.pc
                ).completion
            elif kind == OpKind.STORE:
                completion = self.access_path.store(core, op.addr, now)
            else:  # COMPUTE / PRE_COMPUTE
                completion = self._exec_compute(core, op, now)

            clocks[core] = completion
            if cursors[core] < len(stream):
                heapq.heappush(heap, (completion, core))

        m.stats.per_core_cycles = clocks
        m.stats.total_cycles = max(clocks) if clocks else 0
        m.stats.resource_util = m.resource_utilization()
        return SimulationResult(
            self.scheme.name,
            m.stats,
            self.cfg,
            dict(m.pc_stats) if self.collect_pc_stats else None,
        )

    def _reference_exec_compute(self, core: int, op: TraceOp, now: int) -> int:
        """Execute a COMPUTE/PRE_COMPUTE; returns its completion cycle."""
        m = self.machine
        m.stats.computes += 1
        l1 = m.l1[core]
        l1_hit_x = l1.probe(op.addr)
        l1_hit_y = l1.probe(op.addr2)

        # Conventional estimate (pure).
        est_x = self.access_path.access(core, op.addr, now, commit=False)
        est_y = self.access_path.access(core, op.addr2, now, commit=False)
        conv_completion = max(est_x.completion, est_y.completion) + 1

        candidates = self.candidate_builder.build(core, op, now)
        if self.profile_windows:
            self.profiler.record(op, conv_completion - now, now, candidates)

        # LD/ST-unit local probe (Fig. 1): with an operand already in the
        # local L1, the computation always runs on the core — hardware
        # skips the offload path before any scheme policy applies.
        if (l1_hit_x or l1_hit_y) and not isinstance(self.scheme, NoNdc):
            m.stats.ndc.skipped_local_hit += 1
            m.stats.ndc.conventional += 1
            return self._exec_conventional(core, op, now)

        ctx = ComputeContext(
            op=op,
            core=core,
            now=now,
            conv_completion=conv_completion,
            candidates=candidates,
            l1_hit_x=l1_hit_x,
            l1_hit_y=l1_hit_y,
        )
        if any(c.ready < NEVER for c in candidates):
            m.stats.opportunities_seen += 1
        decision = self.scheme.decide(ctx)

        if decision.offload and decision.station is not None:
            completion = self.ndc_executor.exec_ndc(core, op, now, decision)
        else:
            reason = decision.skip_reason
            if reason == "local_hit":
                m.stats.ndc.skipped_local_hit += 1
            elif reason == "policy":
                m.stats.ndc.skipped_policy += 1
            elif reason == "no_station":
                m.stats.ndc.skipped_no_station += 1
            m.stats.ndc.conventional += 1
            completion = self._exec_conventional(core, op, now)
        return completion


#: engine profile -> (machine, access path, candidate builder classes,
#: replay loop + compute step).  ``None`` keeps the class's own fused
#: :meth:`SystemSimulator.run` and ``_exec_compute``, so the default
#: engine's replay stays reachable as ``SystemSimulator.run``.
ENGINES = {
    OPTIMIZED: (
        FusedMachineState, FusedAccessPath, FusedCandidateBuilder, None
    ),
    REFERENCE: (
        MachineState, AccessPath, CandidateBuilder,
        (SystemSimulator._reference_run,
         SystemSimulator._reference_exec_compute),
    ),
}


def simulate(
    trace: Trace,
    cfg: ArchConfig,
    scheme: Optional[NdcScheme] = None,
    **kwargs,
) -> SimulationResult:
    """One-shot convenience wrapper: build a simulator and run the trace."""
    return SystemSimulator(cfg, scheme, **kwargs).run(trace)
