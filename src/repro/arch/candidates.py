"""NDC station-candidate construction (the paper's trial order).

For every compute ``z = x op y`` the :class:`CandidateBuilder` produces
the list of :class:`~repro.schemes.StationCandidate` a scheme chooses
from — network router, L2 bank, memory controller, DRAM bank — each
with absolute operand-availability estimates priced against *current*
resource occupancy (the engine's reserve phase: nothing is claimed).

The construction is purely observational: it never mutates caches,
links, ports, or banks.  All timing questions go through the shared
:class:`~repro.arch.machine.MachineState`.

The default engine prices on demand: :class:`ComputePricing` builds
each station group, and the conventional estimate, the first time the
deciding scheme reads it.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence as SequenceABC
from typing import Callable, List, Optional, Sequence, Tuple

from repro.arch.machine import PKG_BYTES, REQ_BYTES, WORD_BYTES, MachineState
from repro.arch.routing import RouteSignature
from repro.arch.stats import NEVER
from repro.config import NdcComponentMask, NdcLocation
from repro.isa import OpKind, TraceOp
from repro.schemes import StationCandidate


class CandidateBuilder:
    """Enumerate NDC stations with operand-availability estimates."""

    def __init__(self, machine: MachineState):
        self.m = machine

    # ------------------------------------------------------------------
    def build(
        self, core: int, op: TraceOp, now: int
    ) -> List[StationCandidate]:
        """Stations in the paper's trial order with operand availability."""
        cfg = self.m.cfg
        x, y = op.addr, op.addr2
        hx, hy = cfg.l2_home_node(x), cfg.l2_home_node(y)
        x_l2 = self._l2_status(x, now)
        y_l2 = self._l2_status(y, now)
        out: List[StationCandidate] = []

        out.extend(self._network_candidate(core, op, now, hx, hy, x_l2, y_l2))
        out.append(self._l2_candidate(core, now, hx, hy, x_l2, y_l2))
        mc_cand, bank_cand = self._memory_candidates(core, op, now, x_l2, y_l2)
        out.append(mc_cand)
        out.append(bank_cand)
        return out

    def _wait_cap(self, location: NdcLocation) -> int:
        """Hardware bound on waiting at a station of this kind.

        The time-out register (when enabled) and the global wait ceiling
        bound every park; a network station is additionally bounded by
        the link-buffer residence window.  Schemes with future knowledge
        (the oracle) use this to skip stations whose required wait the
        hardware would cut short.
        """
        ndc = self.m.cfg.ndc
        cap = ndc.max_wait_cycles
        if ndc.timeout_cycles > 0:
            cap = min(cap, ndc.timeout_cycles)
        if location == NdcLocation.NETWORK:
            cap = min(cap, self.m.cfg.noc.meet_window)
        return cap

    def _l2_status(self, addr: int, now: int) -> Tuple[bool, int]:
        """(resident-or-inflight, available-from cycle) at the home bank."""
        m = self.m
        home = m.cfg.l2_home_node(addr)
        if m.l2[home].probe(addr):
            return True, now
        pending = m.pending_l2_fill.get(addr // m.cfg.l2.line_bytes, 0)
        if pending > now:
            return True, pending
        if pending > 0:
            # The fill landed in the past but no access has materialized
            # it into the bank yet: the line is L2-resident now.
            return True, now
        return False, NEVER

    # ------------------------------------------------------------------
    def _network_candidate(
        self,
        core: int,
        op: TraceOp,
        now: int,
        hx: int,
        hy: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
    ) -> List[StationCandidate]:
        """Meet-in-the-network: the two operand *responses* share a link.

        The response routes run from each operand's home bank toward the
        consuming core; the compiler's route hint (Section 5.2.1) may
        replace the default XY routes to create overlap.  The computation
        happens in the router feeding the first shared link; from there
        only the one-word result continues to the core.
        """
        m = self.m
        cfg = m.cfg
        # The response flight's source: the home bank for an L2-resident
        # operand, the memory controller's node otherwise.  Two responses
        # from the *same* source never need a mid-network meet — that
        # source is itself a (better) NDC station.
        src_x = hx if x_l2[0] else m.mesh.mc_node(cfg.memory_controller(op.addr))
        src_y = hy if y_l2[0] else m.mesh.mc_node(cfg.memory_controller(op.addr2))
        if src_x == src_y or src_x == core or src_y == core:
            return []
        if op.route_hint is not None and x_l2[0] and y_l2[0]:
            try:
                route_x = self._signature_from_nodes(op.route_hint.x_nodes)
                route_y = self._signature_from_nodes(op.route_hint.y_nodes)
            except ValueError:
                route_x = m.route(src_x, core)
                route_y = m.route(src_y, core)
        else:
            route_x = m.route(src_x, core)
            route_y = m.route(src_y, core)
        common = route_x.mask & route_y.mask
        if not common:
            return []
        # Response departure times: when each operand's data leaves its home.
        dep_x = self._response_departure(core, op.addr, now, x_l2)
        dep_y = self._response_departure(core, op.addr2, now, y_l2)
        per_hop = cfg.noc.router_latency + cfg.noc.link_latency + \
            m.network.serialization_cycles(cfg.l1.line_bytes) - 1
        meet_window = cfg.noc.meet_window
        # Among shared links, prefer the *earliest* one whose arrival gap
        # fits the link-buffer meet window (more remaining hops = more of
        # the line transfers replaced by the one-word result); fall back
        # to the minimum-gap link otherwise.
        best: Optional[Tuple[int, int, int, int, int]] = None
        best_meet: Optional[Tuple[int, int, int, int, int]] = None
        for idx, (a, b) in enumerate(zip(route_x.nodes, route_x.nodes[1:])):
            link = m.mesh.link(a, b)
            if not common & (1 << link.link_id):
                continue
            tx = dep_x + per_hop * (idx + 1)
            # position of this link on y's route
            try:
                j = route_y.nodes.index(a)
            except ValueError:
                continue
            ty = dep_y + per_hop * (j + 1)
            dt = abs(tx - ty)
            remaining = len(route_x.nodes) - (idx + 2)
            entry = (dt, link.link_id, tx, ty, remaining)
            if best is None or dt < best[0]:
                best = entry
            if dt <= meet_window and (
                best_meet is None or remaining > best_meet[4]
            ):
                best_meet = entry
        if best is None:
            return []
        # Per-flit contention the latency model cannot see adds jitter to
        # when each response actually crosses a given link; a meet
        # succeeds only when the jittered gap still fits the link-buffer
        # residence window.  A PRE_COMPUTE whose plan targets the network
        # has had its operand issues staggered by the compiler (the
        # Section 5.2.1 movement), removing the structural gap — but not
        # the runtime jitter.
        aligned = op.kind == OpKind.PRE_COMPUTE and bool(
            op.mask & NdcComponentMask.NETWORK
        )
        span = (meet_window * 3) // 2 if aligned else meet_window * 2
        jitter = m.hash32(op.addr ^ (op.addr2 >> 3)) % max(1, span)
        if aligned:
            # The compiler staggers the operand issues so the responses
            # co-fly; use the earliest shared link (max savings).
            chosen = max((best_meet, best), key=lambda e: -1 if e is None else e[4])
            gap = jitter
        else:
            chosen = best_meet if best_meet is not None else best
            gap = chosen[0] + jitter
        _, link_id, tx, ty, remaining_hops = chosen
        t_meet = max(tx, ty) if aligned else min(tx, ty)
        if gap > meet_window:
            if not aligned:
                # The responses pass every shared link too far apart for
                # the buffer to hold the first one; a package checks link
                # buffers only in passing, so there is no network station
                # for this compute.
                return []
            # A compiler-aligned package has already been injected at the
            # meet router; the jitter broke the meet, so the first
            # response passes alone and the package times out there.
            avail_x, avail_y = t_meet, NEVER
        else:
            avail_x, avail_y = t_meet, t_meet + gap
        best_d_res = m.network.zero_load_latency(remaining_hops, WORD_BYTES)
        best_node = route_x.nodes[len(route_x.nodes) - 1 - remaining_hops]
        pkg_arrival = m.travel_time(
            core, best_node, now + cfg.ndc.package_overhead, PKG_BYTES,
            commit=False,
        )
        if aligned:
            # The compiler co-schedules the pre-compute with the operand
            # issues, so the package reaches the meet router together
            # with the first response rather than hundreds of cycles
            # ahead of it.
            pkg_arrival = max(pkg_arrival, t_meet)
        return [
            StationCandidate(
                NdcLocation.NETWORK,
                best_node,
                ("link", link_id),
                avail_x,
                avail_y,
                pkg_arrival,
                best_d_res + cfg.ndc.result_forward_overhead,
                hol=m.unit(
                    NdcLocation.NETWORK, ("link", link_id)
                ).table.hol_clearance(now),
                wait_cap=self._wait_cap(NdcLocation.NETWORK),
            )
        ]

    def _signature_from_nodes(self, nodes: Sequence[int]) -> RouteSignature:
        mask = 0
        for a, b in zip(nodes, nodes[1:]):
            mask |= 1 << self.m.mesh.link(a, b).link_id
        return RouteSignature(tuple(nodes), mask)

    def _response_departure(
        self, core: int, addr: int, now: int, l2_status: Tuple[bool, int]
    ) -> int:
        """When the operand's data starts its home->core response trip."""
        m = self.m
        cfg = m.cfg
        home = cfg.l2_home_node(addr)
        req = m.travel_time(
            core, home, now + cfg.l1.access_latency, REQ_BYTES, commit=False
        )
        resident, avail_from = l2_status
        if resident:
            return max(req, avail_from) + cfg.l2.access_latency
        # L2 miss: data must come from memory first.
        mc_id = cfg.memory_controller(addr)
        mc_node = m.mesh.mc_node(mc_id)
        t_mc = m.travel_time(
            home, mc_node, req + cfg.l2.access_latency, REQ_BYTES, commit=False
        )
        t_mem = t_mc + m.mcs[mc_id].queue_delay_estimate(addr, t_mc) + \
            m.mcs[mc_id].service_time("miss")
        t_home = m.travel_time(
            mc_node, home, t_mem, cfg.l2.line_bytes, commit=False
        )
        return t_home

    # ------------------------------------------------------------------
    def _l2_candidate(
        self,
        core: int,
        now: int,
        hx: int,
        hy: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
    ) -> StationCandidate:
        """NDC at the first operand's home L2 bank."""
        m = self.m
        cfg = m.cfg
        node = hx
        pkg_arrival = m.travel_time(
            core, node, now + cfg.ndc.package_overhead, PKG_BYTES, commit=False
        )
        avail_x = max(pkg_arrival, x_l2[1]) if x_l2[0] else NEVER
        if hy == hx and y_l2[0]:
            avail_y = max(pkg_arrival, y_l2[1])
        else:
            avail_y = NEVER
        t_res0 = max(pkg_arrival, avail_x if avail_x < NEVER else pkg_arrival)
        t_res1 = m.travel_time(node, core, t_res0, WORD_BYTES, commit=False)
        d_res = (t_res1 - t_res0) + cfg.ndc.result_forward_overhead
        return StationCandidate(
            NdcLocation.CACHE, node, ("l2", node), avail_x, avail_y,
            pkg_arrival, d_res, extra_latency=cfg.l2.access_latency,
            hol=m.unit(NdcLocation.CACHE, ("l2", node)).table.hol_clearance(now),
            wait_cap=self._wait_cap(NdcLocation.CACHE),
        )

    # ------------------------------------------------------------------
    def _memory_candidates(
        self,
        core: int,
        op: TraceOp,
        now: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
    ) -> Tuple[StationCandidate, StationCandidate]:
        """NDC at the memory controller and at the DRAM bank.

        Both require the operands to be memory-resident (not cached in
        L2 — the paper requires the *most updated* values in the bank);
        the package then triggers the two DRAM reads at the controller
        and computes where the data sits.
        """
        m = self.m
        cfg = m.cfg
        x, y = op.addr, op.addr2
        mcx, mcy = cfg.memory_controller(x), cfg.memory_controller(y)
        bx, by = cfg.dram_bank(x), cfg.dram_bank(y)
        node = m.mesh.mc_node(mcx)
        pkg_arrival = m.travel_time(
            core, node, now + cfg.ndc.package_overhead, PKG_BYTES, commit=False
        )
        t_res1 = m.travel_time(node, core, pkg_arrival, WORD_BYTES, commit=False)
        d_res = (t_res1 - pkg_arrival) + cfg.ndc.result_forward_overhead
        mc = m.mcs[mcx]

        x_in_mem = not x_l2[0]
        y_in_mem = not y_l2[0]

        # Estimates mirror the committed path exactly: single reads use
        # the same gap-fill query `MemoryController.access` resolves
        # against, same-bank pairs the contiguous window `access_pair`
        # claims — so a scheme's decision-time availability matches what
        # the offload will actually see (no state changes in between).
        def dram_time(addr: int) -> int:
            bank = mc.banks[cfg.dram_bank(addr)]
            svc = mc.service_time(bank.outcome(cfg.dram_row(addr)))
            queue = bank.timeline.earliest_free(pkg_arrival, svc) - pkg_arrival
            return queue + svc

        def pair_times() -> Tuple[int, int]:
            """(first, second) completion offsets of the same-bank pair."""
            bank = mc.banks[bx]
            row_x, row_y = cfg.dram_row(x), cfg.dram_row(y)
            svc_x = mc.service_time(bank.outcome(row_x))
            svc_y = mc.service_time("hit" if row_y == row_x else "conflict")
            span = svc_x + svc_y
            queue = bank.timeline.earliest_free(pkg_arrival, span) - pkg_arrival
            return queue + svc_x, queue + span

        same_bank_pair = x_in_mem and y_in_mem and mcx == mcy and bx == by

        # --- memory-controller candidate -------------------------------
        # Computing in the MC queue needs each operand read out of its
        # bank *and* moved across the DRAM bus to the controller.
        bus = cfg.memory.dram.bus_cycles
        if same_bank_pair:
            first, second = pair_times()
            avail_x = pkg_arrival + first + bus
            avail_y = pkg_arrival + second + bus
        else:
            avail_x = pkg_arrival + dram_time(x) + bus if x_in_mem else NEVER
            avail_y = (
                pkg_arrival + dram_time(y) + bus
                if y_in_mem and mcy == mcx
                else NEVER
            )
        mc_cand = StationCandidate(
            NdcLocation.MEMCTRL, node, ("mc", mcx), avail_x, avail_y,
            pkg_arrival, d_res,
            hol=m.unit(NdcLocation.MEMCTRL, ("mc", mcx)).table.hol_clearance(now),
            wait_cap=self._wait_cap(NdcLocation.MEMCTRL),
        )

        # --- in-bank candidate ------------------------------------------
        # Feasible only when both operands live in the *same* DRAM bank;
        # same-row pairs are served out of the row buffer, making the
        # in-bank compute the cheapest station for them.
        if same_bank_pair:
            first, second = pair_times()
            b_avail_x = pkg_arrival + first
            b_avail_y = pkg_arrival + second
        else:
            b_avail_x = pkg_arrival + dram_time(x) if x_in_mem else NEVER
            b_avail_y = NEVER
        bank_cand = StationCandidate(
            NdcLocation.MEMORY, node, ("mem", mcx, bx), b_avail_x, b_avail_y,
            pkg_arrival, d_res,  # the one-word result rides out with the
            # column access; no per-operand bus crossings at all
            hol=m.unit(
                NdcLocation.MEMORY, ("mem", mcx, bx)
            ).table.hol_clearance(now),
            wait_cap=self._wait_cap(NdcLocation.MEMORY),
        )
        return mc_cand, bank_cand


#: ``ComputePricing._net`` before the network group is built (the
#: group itself may be ``None``: no network station for this compute)
_UNPRICED = object()


class ComputePricing(SequenceABC):
    """One compute's decision inputs, priced on first read.

    The sequence is the compute's station candidates in the paper's
    trial order, in three groups: the network candidate (when there is
    one), the L2-bank candidate, then the memory-controller and DRAM-bank
    pair, which share one package flight.  Each group is built the
    first time a reader reaches it and kept for the rest of the
    compute.  Iterating is lazy, so a scheme that stops at the first
    workable station prices nothing behind it; ``len()`` and indexing
    build every group.  :meth:`conv_completion` prices the two operand
    estimates on first call.

    Everything here is reserve-phase pricing: nothing is claimed, so
    pricing a group late or never changes no result.  Its only writes
    are memo fills and the ``purge(now)`` inside a station's
    ``hol_clearance(now)``, which no later query can see (pop times
    never decrease).  :class:`FusedCandidateBuilder` owns one instance
    and resets it (:meth:`reset`) for every compute, so it is valid
    only until that compute's decision executes.
    """

    def __init__(self, builder: "FusedCandidateBuilder") -> None:
        # A weak back-reference: the builder owns this object, and a
        # reference cycle would keep every finished machine alive until
        # the cycle collector runs.
        self.b = weakref.proxy(builder)
        self.m = builder.m
        #: the access path's pure operand estimate
        #: (``FusedAccessPath.estimate``), bound by the simulator
        self.estimate: Optional[Callable[[int, int, int, bool], int]] = None

    def reset(
        self,
        core: int,
        op: TraceOp,
        now: int,
        l1_hit_x: bool = False,
        l1_hit_y: bool = False,
    ) -> None:
        """Start pricing compute ``op`` issued by ``core`` at ``now``."""
        m = self.m
        self.core = core
        self.op = op
        self.now = now
        self.l1_hit_x = l1_hit_x
        self.l1_hit_y = l1_hit_y
        amap = m.addr_info
        x, y = op.addr, op.addr2
        ix = amap.get(x)
        if ix is None:
            ix = m.addr_fact(x)
        iy = amap.get(y)
        if iy is None:
            iy = m.addr_fact(y)
        self.ix = ix
        self.iy = iy
        l2_status = self.b._l2_status_at
        self.x_l2 = l2_status(x, now, ix[0], ix[1])
        self.y_l2 = l2_status(y, now, iy[0], iy[1])
        self._net = _UNPRICED
        self._l2 = None
        self._mem = None
        self._conv = None

    # -- the three groups, in trial order ---------------------------------
    def network(self) -> Optional[StationCandidate]:
        """The meet-in-the-network candidate, or None when there is none."""
        net = self._net
        if net is _UNPRICED:
            ix, iy = self.ix, self.iy
            net = self._net = self.b._fused_network_candidate(
                self.core, self.op, self.now, ix[0], iy[0],
                self.x_l2, self.y_l2, ix, iy,
            )
        return net

    def cache(self) -> StationCandidate:
        """The candidate at the first operand's home L2 bank."""
        cand = self._l2
        if cand is None:
            cand = self._l2 = self.b._l2_candidate(
                self.core, self.now, self.ix[0], self.iy[0],
                self.x_l2, self.y_l2,
            )
        return cand

    def memory(self) -> Tuple[StationCandidate, StationCandidate]:
        """The memory-controller and DRAM-bank candidates."""
        pair = self._mem
        if pair is None:
            pair = self._mem = self.b._memory_candidates(
                self.core, self.op, self.now, self.x_l2, self.y_l2
            )
        return pair

    def __iter__(self):
        net = self.network()
        if net is not None:
            yield net
        yield self.cache()
        yield from self.memory()

    def __len__(self) -> int:
        return 3 if self.network() is None else 4

    def __getitem__(self, index):
        return self.force()[index]

    def force(self) -> List[StationCandidate]:
        """Every candidate in trial order (builds every group)."""
        net = self.network()
        head = [] if net is None else [net]
        return head + [self.cache(), *self.memory()]

    # -- what the simulator asks before and beside the scheme -------------
    def any_ready(self) -> bool:
        """Whether some candidate has ``ready < NEVER``.

        Answered from structure where the answer is structural: the L2
        candidate is ready exactly when both operands are L2-resident
        (or in flight) at the same home, and the memory-controller and
        bank candidates exactly when both are memory-resident behind
        the same controller.  Only otherwise is the network candidate
        built.  (The facts hold while cycles stay below ``NEVER``.)
        """
        x_resident = self.x_l2[0]
        if x_resident == self.y_l2[0]:
            if x_resident:
                if self.ix[0] == self.iy[0]:
                    return True
            elif self.ix[2] == self.iy[2]:
                return True
        net = self.network()
        return net is not None and net.ready < NEVER

    def conv_completion(self) -> int:
        """Completion cycle of the compute executed on the core."""
        conv = self._conv
        if conv is None:
            estimate = self.estimate
            core, op, now = self.core, self.op, self.now
            est_x = estimate(core, op.addr, now, self.l1_hit_x)
            est_y = estimate(core, op.addr2, now, self.l1_hit_y)
            conv = self._conv = (est_x if est_x >= est_y else est_y) + 1
        return conv


class FusedCandidateBuilder(CandidateBuilder):
    """Candidate construction of the ``optimized`` engine.

    Same trial order, same availability arithmetic, over the machine's
    memoized address facts; the duplicated pure queries of the base
    builder (the same-bank pair window computed once per candidate, the
    per-operand DRAM estimates) are computed once and shared — sound
    because the whole construction is purely observational (nothing is
    claimed between the queries).  The groups are built through
    :attr:`pricing`, on demand in the simulator's compute step and all
    at once in :meth:`build`.
    """

    def __init__(self, machine) -> None:
        super().__init__(machine)
        # _wait_cap is pure per (config, location): precompute the three
        # hardware wait ceilings once per simulation.
        self._caps = {
            loc: CandidateBuilder._wait_cap(self, loc)
            for loc in NdcLocation
        }
        #: unit key -> bound ``table.hol_clearance`` (units are
        #: per-machine singletons, so the bound method never goes stale)
        self._hol = {}
        cfg = machine.cfg
        #: response-flight cost per hop — pure in (config, payload)
        self._per_hop = (
            cfg.noc.router_latency + cfg.noc.link_latency
            + machine.network.serialization_cycles(cfg.l1.line_bytes) - 1
        )
        #: remaining-hops -> zero-load result-return latency (pure)
        self._zll = {}
        #: the per-compute on-demand pricing (reset for every compute)
        self.pricing = ComputePricing(self)

    def _wait_cap(self, location) -> int:
        return self._caps[location]

    def _hol_fn(self, location, key):
        f = self._hol.get(key)
        if f is None:
            f = self.m.unit(location, key).table.hol_clearance
            self._hol[key] = f
        return f

    def build(
        self, core: int, op, now: int
    ) -> List[StationCandidate]:
        pricing = self.pricing
        pricing.reset(core, op, now)
        return pricing.force()

    def _l2_status_at(
        self, addr: int, now: int, home: int, l2_line: int
    ) -> Tuple[bool, int]:
        m = self.m
        if m.l2[home].probe(addr):
            return True, now
        pending = m.pending_l2_fill.get(l2_line, 0)
        if pending > now:
            return True, pending
        if pending > 0:
            return True, now
        return False, NEVER

    def _fused_network_candidate(
        self,
        core: int,
        op,
        now: int,
        hx: int,
        hy: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
        ix,
        iy,
    ) -> Optional[StationCandidate]:
        """Base :meth:`_network_candidate` over the memoized facts.

        Same trial logic and the same arithmetic on the same inputs —
        the response sources and link ids come from the address map and
        the flat all-pairs rows instead of the closed-form mesh walk,
        and the pure per-config constants (per-hop cost, zero-load
        return latency) are computed once instead of per compute.
        """
        m = self.m
        cfg = m.cfg
        src_x = hx if x_l2[0] else ix[3]
        src_y = hy if y_l2[0] else iy[3]
        if src_x == src_y or src_x == core or src_y == core:
            return None
        lids_x = None
        if op.route_hint is not None and x_l2[0] and y_l2[0]:
            try:
                route_x = self._signature_from_nodes(op.route_hint.x_nodes)
                route_y = self._signature_from_nodes(op.route_hint.y_nodes)
            except ValueError:
                route_x = m.route(src_x, core)
                route_y = m.route(src_y, core)
                lids_x = m._lids[src_x * m._nn + core]
        else:
            route_x = m.route(src_x, core)
            route_y = m.route(src_y, core)
            lids_x = m._lids[src_x * m._nn + core]
        common = route_x.mask & route_y.mask
        if not common:
            return None
        if lids_x is None:
            link = m.mesh.link
            lids_x = tuple(
                link(a, b).link_id
                for a, b in zip(route_x.nodes, route_x.nodes[1:])
            )
        dep_x = self._response_departure(core, op.addr, now, x_l2)
        dep_y = self._response_departure(core, op.addr2, now, y_l2)
        per_hop = self._per_hop
        meet_window = cfg.noc.meet_window
        nodes_x = route_x.nodes
        nodes_y = route_y.nodes
        best: Optional[Tuple[int, int, int, int, int]] = None
        best_meet: Optional[Tuple[int, int, int, int, int]] = None
        for idx, link_id in enumerate(lids_x):
            if not common & (1 << link_id):
                continue
            tx = dep_x + per_hop * (idx + 1)
            try:
                j = nodes_y.index(nodes_x[idx])
            except ValueError:
                continue
            ty = dep_y + per_hop * (j + 1)
            dt = abs(tx - ty)
            remaining = len(nodes_x) - (idx + 2)
            entry = (dt, link_id, tx, ty, remaining)
            if best is None or dt < best[0]:
                best = entry
            if dt <= meet_window and (
                best_meet is None or remaining > best_meet[4]
            ):
                best_meet = entry
        if best is None:
            return None
        aligned = op.kind == OpKind.PRE_COMPUTE and bool(
            op.mask & NdcComponentMask.NETWORK
        )
        span = (meet_window * 3) // 2 if aligned else meet_window * 2
        jitter = m.hash32(op.addr ^ (op.addr2 >> 3)) % max(1, span)
        if aligned:
            chosen = max(
                (best_meet, best), key=lambda e: -1 if e is None else e[4]
            )
            gap = jitter
        else:
            chosen = best_meet if best_meet is not None else best
            gap = chosen[0] + jitter
        _, link_id, tx, ty, remaining_hops = chosen
        t_meet = max(tx, ty) if aligned else min(tx, ty)
        if gap > meet_window:
            if not aligned:
                return None
            avail_x, avail_y = t_meet, NEVER
        else:
            avail_x, avail_y = t_meet, t_meet + gap
        best_d_res = self._zll.get(remaining_hops)
        if best_d_res is None:
            best_d_res = m.network.zero_load_latency(
                remaining_hops, WORD_BYTES
            )
            self._zll[remaining_hops] = best_d_res
        best_node = nodes_x[len(nodes_x) - 1 - remaining_hops]
        pkg_arrival = m.travel_time(
            core, best_node, now + cfg.ndc.package_overhead, PKG_BYTES,
            False,
        )
        if aligned:
            pkg_arrival = max(pkg_arrival, t_meet)
        key = ("link", link_id)
        return StationCandidate(
            NdcLocation.NETWORK,
            best_node,
            key,
            avail_x,
            avail_y,
            pkg_arrival,
            best_d_res + cfg.ndc.result_forward_overhead,
            hol=self._hol_fn(NdcLocation.NETWORK, key)(now),
            wait_cap=self._caps[NdcLocation.NETWORK],
        )

    def _response_departure(
        self, core: int, addr: int, now: int, l2_status: Tuple[bool, int]
    ) -> int:
        m = self.m
        cfg = m.cfg
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        req = m.travel_time(
            core, info[0], now + cfg.l1.access_latency, REQ_BYTES,
            commit=False,
        )
        resident, avail_from = l2_status
        if resident:
            return max(req, avail_from) + cfg.l2.access_latency
        mc = m.mcs[info[2]]
        t_mc = m.travel_time(
            info[0], info[3], req + cfg.l2.access_latency, REQ_BYTES,
            commit=False,
        )
        t_mem = t_mc + mc.queue_delay_estimate(addr, t_mc) + \
            mc.service_time("miss")
        return m.travel_time(
            info[3], info[0], t_mem, cfg.l2.line_bytes, commit=False
        )

    def _l2_candidate(
        self,
        core: int,
        now: int,
        hx: int,
        hy: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
    ) -> StationCandidate:
        m = self.m
        cfg = m.cfg
        node = hx
        pkg_arrival = m.travel_time(
            core, node, now + cfg.ndc.package_overhead, PKG_BYTES,
            commit=False,
        )
        avail_x = max(pkg_arrival, x_l2[1]) if x_l2[0] else NEVER
        if hy == hx and y_l2[0]:
            avail_y = max(pkg_arrival, y_l2[1])
        else:
            avail_y = NEVER
        t_res0 = max(pkg_arrival, avail_x if avail_x < NEVER else pkg_arrival)
        t_res1 = m.travel_time(node, core, t_res0, WORD_BYTES, commit=False)
        d_res = (t_res1 - t_res0) + cfg.ndc.result_forward_overhead
        key = ("l2", node)
        return StationCandidate(
            NdcLocation.CACHE, node, key, avail_x, avail_y,
            pkg_arrival, d_res, extra_latency=cfg.l2.access_latency,
            hol=self._hol_fn(NdcLocation.CACHE, key)(now),
            wait_cap=self._caps[NdcLocation.CACHE],
        )

    def _memory_candidates(
        self,
        core: int,
        op,
        now: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
    ) -> Tuple[StationCandidate, StationCandidate]:
        m = self.m
        cfg = m.cfg
        x, y = op.addr, op.addr2
        amap = m.addr_info
        ix = amap.get(x)
        if ix is None:
            ix = m.addr_fact(x)
        iy = amap.get(y)
        if iy is None:
            iy = m.addr_fact(y)
        mcx, mcy = ix[2], iy[2]
        bx, by = ix[4], iy[4]
        node = ix[3]
        pkg_arrival = m.travel_time(
            core, node, now + cfg.ndc.package_overhead, PKG_BYTES,
            commit=False,
        )
        t_res1 = m.travel_time(
            node, core, pkg_arrival, WORD_BYTES, commit=False
        )
        d_res = (t_res1 - pkg_arrival) + cfg.ndc.result_forward_overhead
        mc = m.mcs[mcx]

        x_in_mem = not x_l2[0]
        y_in_mem = not y_l2[0]
        same_bank_pair = x_in_mem and y_in_mem and mcx == mcy and bx == by
        bus = cfg.memory.dram.bus_cycles

        if same_bank_pair:
            bank = mc.banks[bx]
            row_x, row_y = ix[5], iy[5]
            svc_x = mc.service_time(bank.outcome(row_x))
            svc_y = mc.service_time("hit" if row_y == row_x else "conflict")
            span = svc_x + svc_y
            queue = bank.timeline.earliest_free(pkg_arrival, span) - \
                pkg_arrival
            first, second = queue + svc_x, queue + span
            avail_x = pkg_arrival + first + bus
            avail_y = pkg_arrival + second + bus
            b_avail_x = pkg_arrival + first
            b_avail_y = pkg_arrival + second
        else:
            if x_in_mem:
                bank = mc.banks[bx]
                svc = mc.service_time(bank.outcome(ix[5]))
                queue = bank.timeline.earliest_free(pkg_arrival, svc) - \
                    pkg_arrival
                avail_x = pkg_arrival + queue + svc + bus
                b_avail_x = pkg_arrival + queue + svc
            else:
                avail_x = NEVER
                b_avail_x = NEVER
            if y_in_mem and mcy == mcx:
                bank_y = mc.banks[by]
                svc_y1 = mc.service_time(bank_y.outcome(iy[5]))
                queue_y = bank_y.timeline.earliest_free(
                    pkg_arrival, svc_y1
                ) - pkg_arrival
                avail_y = pkg_arrival + queue_y + svc_y1 + bus
            else:
                avail_y = NEVER
            b_avail_y = NEVER

        key_mc = ("mc", mcx)
        mc_cand = StationCandidate(
            NdcLocation.MEMCTRL, node, key_mc, avail_x, avail_y,
            pkg_arrival, d_res,
            hol=self._hol_fn(NdcLocation.MEMCTRL, key_mc)(now),
            wait_cap=self._caps[NdcLocation.MEMCTRL],
        )
        key_mem = ("mem", mcx, bx)
        bank_cand = StationCandidate(
            NdcLocation.MEMORY, node, key_mem, b_avail_x,
            b_avail_y, pkg_arrival, d_res,
            hol=self._hol_fn(NdcLocation.MEMORY, key_mem)(now),
            wait_cap=self._caps[NdcLocation.MEMORY],
        )
        return mc_cand, bank_cand
