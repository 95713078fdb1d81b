"""Shared machine state for the layered simulation engine.

:class:`MachineState` owns every piece of modeled hardware — caches,
NoC, memory controllers, NDC units, L2 bank-port timelines — plus the
cross-layer bookkeeping (journeys, the delayed-writeback directory,
pending L2 fills, statistics, the event bus).  The access-path,
candidate-construction, and NDC-execution layers (:mod:`~repro.arch
.access`, :mod:`~repro.arch.candidates`, :mod:`~repro.arch.ndc_exec`)
all operate on one shared instance; the
:class:`~repro.arch.simulator.SystemSimulator` orchestrates them.

:class:`MachineState` is the ``reference`` engine's implementation:
closed-form XY routes on every transfer and the rescanning
:class:`~repro.arch.engine.ReferenceCapacityTimeline` behind the NDC
tables.  :class:`FusedMachineState` is the default ``optimized``
engine's: it owns the memoized route table, the heap-backed
:class:`~repro.arch.engine.CapacityTimeline` tables, the fused NoC
travel loop and the memoized address facts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.cache import SetAssociativeCache
from repro.arch.engine import (
    CapacityTimeline,
    ReferenceCapacityTimeline,
    ResourceTimeline,
)
from repro.arch.events import EventBus, L2PortStall, LinkStall
from repro.arch.memory import MemoryController
from repro.arch.ndc_units import NdcUnit, OffloadTable
from repro.arch.noc import Network
from repro.arch.routing import RouteSignature, route_table_for, xy_route
from repro.arch.stats import SimStats
from repro.arch.topology import Mesh, mesh_for
from repro.config import ArchConfig, NdcLocation

#: payload sizes in bytes
REQ_BYTES = 8        # a read request / address
WORD_BYTES = 8       # an NDC result
PKG_BYTES = 16       # an NDC compute package (two addresses + op)


@dataclass(slots=True)
class Journey:
    """Station timestamps of a line's most recent trip through the system."""

    t_issue: int = 0
    links: Tuple[Tuple[int, int], ...] = ()   #: (link_id, cycle) pairs
    l2: Optional[Tuple[int, int]] = None      #: (home node, arrival cycle)
    mc: Optional[Tuple[int, int]] = None      #: (controller, arrival cycle)
    bank: Optional[Tuple[int, int, int]] = None  #: (controller, bank, cycle)


class MachineState:
    """All modeled hardware plus cross-layer bookkeeping."""

    #: capacity-timeline class of the offload and service tables
    table_timeline = ReferenceCapacityTimeline

    def __init__(
        self,
        cfg: ArchConfig,
        bus: Optional[EventBus] = None,
        collect_pc_stats: bool = False,
        collect_window_series: bool = False,
    ):
        self.cfg = cfg
        self.bus = bus
        self.collect_pc_stats = collect_pc_stats
        self.collect_window_series = collect_window_series
        self.mesh: Mesh = mesh_for(cfg.noc.width, cfg.noc.height)
        self.network = Network(self.mesh, cfg.noc, bus=bus)
        self.l1 = [
            SetAssociativeCache(cfg.l1, f"L1[{n}]")
            for n in range(self.mesh.num_nodes)
        ]
        self.l2 = [
            SetAssociativeCache(cfg.l2, f"L2[{n}]")
            for n in range(self.mesh.num_nodes)
        ]
        #: one lookup port per L2 bank: concurrent requests serialize
        self.l2_ports = [
            ResourceTimeline(f"l2port:{n}")
            for n in range(self.mesh.num_nodes)
        ]
        self.mcs = [
            MemoryController(cfg, m, bus=bus)
            for m in range(cfg.memory.num_controllers)
        ]
        self.ndc_units: Dict[tuple, NdcUnit] = {}
        self.offload_tables = [
            OffloadTable(cfg.ndc.offload_table_entries, self.table_timeline)
            for _ in range(self.mesh.num_nodes)
        ]
        self.journeys: Dict[int, Journey] = {}
        self.pending_l2_fill: Dict[int, int] = {}  # l2 line -> fill cycle
        #: delayed-writeback directory: l2 line -> (owner core, wb cycle)
        self.dirty: Dict[int, Tuple[int, int]] = {}
        self.stats = SimStats()
        #: pc -> [l1 hits, l1 misses, l2 hits, l2 misses] (ground truth
        #: for the Table 2 CME-accuracy comparison)
        self.pc_stats: Dict[int, List[int]] = {}
        self.next_package_id = 0

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> RouteSignature:
        # The pre-optimization semantics: recompute the XY walk
        # closed-form on every access (the differential harness pins
        # the default engine's route table cycle-identical).
        return xy_route(self.mesh, src, dst)

    def unit(self, location: NdcLocation, key: tuple) -> NdcUnit:
        full_key = (location, key)
        u = self.ndc_units.get(full_key)
        if u is None:
            u = NdcUnit(location, key, self.cfg.ndc, self.table_timeline)
            self.ndc_units[full_key] = u
        return u

    def new_package_id(self) -> int:
        pkg = self.next_package_id
        self.next_package_id += 1
        return pkg

    def l1_line(self, addr: int) -> int:
        return addr // self.cfg.l1.line_bytes

    @staticmethod
    def hash32(v: int) -> int:
        h = (v * 2654435761) & 0xFFFFFFFF
        h ^= h >> 15
        h = (h * 2246822519) & 0xFFFFFFFF
        return h ^ (h >> 13)

    def writeback_lag(self, l2_line: int) -> int:
        cfg = self.cfg
        spread = max(1, cfg.writeback_lag_spread)
        return cfg.writeback_lag_base + self.hash32(l2_line) % spread

    def travel(
        self,
        src: int,
        dst: int,
        start: int,
        payload: int,
        commit: bool,
        stamps: bool = True,
    ) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """Move a payload ``src -> dst``; returns (arrival, link stamps).

        ``stamps=False`` skips the per-link stamp construction (the
        tuple is returned empty) — callers that only need the arrival
        cycle should pass it (or call :meth:`travel_time` directly).
        """
        if not stamps:
            return self.travel_time(src, dst, start, payload, commit), ()
        if src == dst:
            return start, ()
        # Estimates see current link occupancy too (commit=False runs
        # the reserve phase only), so scheme decisions price congestion.
        route = xy_route(self.mesh, src, dst)
        times = self.network.traverse(
            route, start, payload, commit=commit
        ).node_times
        links = tuple(
            (self.mesh.link(a, b).link_id, t)
            for (a, b), t in zip(zip(route.nodes, route.nodes[1:]), times[1:])
        )
        return times[-1], links

    def travel_time(
        self, src: int, dst: int, start: int, payload: int, commit: bool
    ) -> int:
        """Arrival-only :meth:`travel` for call sites that discard the
        link stamps (reserve-phase estimates, package flights, result
        returns)."""
        if src == dst:
            return start
        return self.network.traverse(
            xy_route(self.mesh, src, dst), start, payload, commit=commit
        ).completion

    def l2_port_start(self, node: int, t: int, commit: bool) -> int:
        """When the L2 bank at ``node`` can start a lookup requested at
        ``t`` (one lookup port; reserve phase only unless committing)."""
        port = self.l2_ports[node]
        if commit:
            start = port.reserve(t, 1)
            if start > t and self.bus is not None:
                self.bus.emit(L2PortStall(cycle=t, node=node, stall=start - t))
            return start
        return port.earliest_free(t, 1)

    def record_pc(
        self, pc: int, l1_hit: bool, l2_hit: Optional[bool] = None
    ) -> None:
        if not self.collect_pc_stats or pc < 0:
            return
        rec = self.pc_stats.get(pc)
        if rec is None:
            rec = [0, 0, 0, 0]
            self.pc_stats[pc] = rec
        rec[0 if l1_hit else 1] += 1
        if l2_hit is not None:
            rec[2 if l2_hit else 3] += 1

    # ------------------------------------------------------------------
    # per-resource utilization (the --stats summary)
    # ------------------------------------------------------------------
    def resource_utilization(self) -> Dict[str, Tuple[int, int, int]]:
        """``name -> (reservations, busy cycles, stall cycles)`` for every
        resource timeline that saw traffic during the run."""
        out: Dict[str, Tuple[int, int, int]] = {}
        timelines: List[ResourceTimeline] = []
        timelines.extend(self.network.timelines())
        for mc in self.mcs:
            timelines.extend(mc.timelines())
        timelines.extend(self.l2_ports)
        for tl in timelines:
            if tl.reservations:
                out[tl.name] = tl.utilization()
        # DRAM row-buffer behaviour per controller, in the same map so
        # downstream consumers (the --stats summary, the bottleneck
        # characterization pass) need no second channel:
        # (requests, row hits, row conflicts).
        for mc in self.mcs:
            if mc.stats.requests:
                out[f"dramrow:{mc.controller_id}"] = (
                    mc.stats.requests,
                    mc.stats.row_hits,
                    mc.stats.row_conflicts,
                )
        for (loc, key), u in self.ndc_units.items():
            admitted, completed, rejected = u.utilization()
            if admitted or rejected:
                name = "ndc:" + ":".join(str(k) for k in key)
                out[name] = (admitted, completed, rejected)
        return dict(sorted(out.items()))


class FusedMachineState(MachineState):
    """Machine state of the ``optimized`` engine.

    Routes come from the process-wide all-pairs
    :class:`~repro.arch.routing.RouteTable`, the NDC tables from the
    heap-backed :class:`~repro.arch.engine.CapacityTimeline`, derived
    address facts are memoized per simulation, and :meth:`travel_time`
    runs the NoC hop walk in one fused loop over the link timelines'
    own interval lists.  The overwhelmingly common "no reservation ends
    after the wanted departure" case appends to a list in O(1) instead
    of walking it.  Timing, counters and events are identical to
    :class:`MachineState`'s (pinned by the differential harness and a
    hypothesis property).
    """

    table_timeline = CapacityTimeline

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: all-pairs memoized XY routes
        table = self._route_table = route_table_for(self.mesh)
        #: flat all-pairs link-id rows (src * num_nodes + dst)
        self._lids = table._link_ids
        self._nn = table.mesh.num_nodes
        links = self.network.timelines()
        #: flat per-link interval lists, aliasing each timeline's own
        #: storage (ResourceTimeline mutates the lists in place, never
        #: rebinds them) — one index instead of index + attribute load
        #: on every hop of every transit
        self._lstarts = [tl._starts for tl in links]
        self._lends = [tl._ends for tl in links]
        #: payload bytes -> (serialization cycles, per-hop tail)
        self._ser_tail = {}
        #: addr -> (home, l2 line, mc id, mc node, bank, row), filled on
        #: first use by :meth:`addr_fact`
        self.addr_info = {}
        mem = self.cfg.memory
        #: the constants of the config's address maps, and each
        #: controller's mesh node
        self._addr_consts = (
            self.cfg.l2.line_bytes, self.cfg.noc.num_nodes,
            mem.interleave_bytes, mem.num_controllers,
            mem.dram.banks_per_controller, mem.dram.rows_per_bank,
            tuple(map(self.mesh.mc_node, range(mem.num_controllers))),
        )
        #: live only during a compute's pure estimate/candidate phase
        self._pure_memo = None
        #: journeys feed the Section 4 window profiler only; replay
        #: without it skips the stamp/Journey construction entirely
        self.keep_journeys = True

    def addr_fact(self, addr: int):
        """Derived facts for ``addr`` (computed on first use): the
        config's closed forms (``l2_home_node``, ``memory_controller``,
        ``dram_bank``, ``dram_row``) and ``Mesh.mc_node``, in integer
        arithmetic over constants taken once per machine."""
        info = self.addr_info.get(addr)
        if info is None:
            line_bytes, nodes, interleave, ctrls, banks, rows, mc_nodes = (
                self._addr_consts
            )
            line = addr // line_bytes
            page = addr // interleave
            mc_id = page % ctrls
            per_mc = page // ctrls
            info = (
                line % nodes, line, mc_id, mc_nodes[mc_id],
                per_mc % banks, per_mc // banks % rows,
            )
            self.addr_info[addr] = info
        return info

    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> RouteSignature:
        return self._route_table.route(src, dst)

    def travel(
        self,
        src: int,
        dst: int,
        start: int,
        payload: int,
        commit: bool,
        stamps: bool = True,
    ) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        if not stamps:
            return self.travel_time(src, dst, start, payload, commit), ()
        if src == dst:
            return start, ()
        table = self._route_table
        link_ids = table.link_ids(src, dst)
        times = self.network.traverse(
            table.route(src, dst), start, payload,
            commit=commit, link_ids=link_ids,
        ).node_times
        return times[-1], tuple(zip(link_ids, times[1:]))

    def travel_time(
        self, src: int, dst: int, start: int, payload: int, commit: bool
    ) -> int:
        if src == dst:
            return start
        link_ids = self._lids[src * self._nn + dst]
        net = self.network
        st = self._ser_tail.get(payload)
        if st is None:
            ser = net.serialization_cycles(payload)
            st = (ser, net._hop_tail + ser)
            self._ser_tail[payload] = st
        ser, tail = st
        lstarts = self._lstarts
        lends = self._lends
        router_latency = net._router_latency
        bisect = bisect_right
        t = start
        if not commit:
            memo = self._pure_memo
            if memo is not None:
                key = (src, dst, start, payload)
                hit = memo.get(key)
                if hit is not None:
                    return hit
            for link_id in link_ids:
                ends = lends[link_id]
                want = t + router_latency
                if not ends or ends[-1] <= want:
                    t = want + tail
                    continue
                # Inlined ResourceTimeline.earliest_free (gap-fill,
                # span > 0, non-empty): skip intervals ending at or
                # before `want`, then walk the remaining gaps.  Interval
                # lists stay short (merges fuse neighbours), so a linear
                # skip beats the bisect call except on long tails.
                starts = lstarts[link_id]
                n = len(starts)
                if n < 8:
                    i = 0
                    while i < n and ends[i] <= want:
                        i += 1
                else:
                    i = bisect(ends, want)
                free = want
                while i < n:
                    if starts[i] - free >= ser:
                        break
                    e = ends[i]
                    if e > free:
                        free = e
                    i += 1
                t = free + tail
            if memo is not None:
                memo[key] = t
            return t
        links = net._links
        bus = net.bus
        stats = net.stats
        flits = 0
        for link_id in link_ids:
            tl = links[link_id]
            ends = lends[link_id]
            want = t + router_latency
            tl.reservations += 1
            tl.busy_cycles += ser
            if not ends or ends[-1] <= want:
                # O(1) append/extend: the gap walk would land here anyway.
                if ends and ends[-1] == want:
                    ends[-1] = want + ser
                else:
                    lstarts[link_id].append(want)
                    ends.append(want + ser)
                t = want + tail
            else:
                # Inlined ResourceTimeline.reserve (gap-fill, span > 0,
                # non-empty): same single gap walk, then the same
                # predecessor/successor merge on insertion.
                starts = lstarts[link_id]
                n = len(starts)
                if n < 8:
                    i = 0
                    while i < n and ends[i] <= want:
                        i += 1
                else:
                    i = bisect(ends, want)
                free = want
                while i < n:
                    if starts[i] - free >= ser:
                        break
                    e = ends[i]
                    if e > free:
                        free = e
                    i += 1
                end = free + ser
                queue = free - want
                tl.stall_cycles += queue
                if i > 0 and ends[i - 1] == free:
                    if i < n and starts[i] == end:
                        # Bridges the gap exactly: both neighbours fuse.
                        ends[i - 1] = ends[i]
                        del starts[i]
                        del ends[i]
                    else:
                        ends[i - 1] = end
                elif i < n and starts[i] == end:
                    starts[i] = free
                else:
                    starts.insert(i, free)
                    ends.insert(i, end)
                if queue:
                    stats.total_queue_cycles += queue
                    if bus is not None:
                        bus.emit(LinkStall(cycle=want, link=link_id,
                                           stall=queue))
                t = free + tail
            flits += ser
        stats.flit_hops += flits
        stats.transfers += 1
        return t
