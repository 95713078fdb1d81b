"""The data-access path: loads, stores, and conventional computes.

:class:`AccessPath` walks one address through the memory hierarchy over
a shared :class:`~repro.arch.machine.MachineState` — L1 lookup, NoC
request to the NUCA home bank (gated by the bank's single lookup port),
delayed-writeback coherence (3-hop snoop forwards), L2 lookup or
in-flight fill, DRAM fetch + refill, and the response trip back to the
core.

Every step exists in two flavours selected by ``commit``:

* ``commit=True`` claims resources (link slots, L2 ports, DRAM banks),
  mutates cache state, and bumps statistics;
* ``commit=False`` is a pure *estimate* that prices the same contention
  through the engine's reserve phase (``earliest_free``) without
  claiming anything — the scheme layer uses it to cost the conventional
  alternative of every offload decision.

:class:`AccessPath` is the ``reference`` engine's walk;
:class:`FusedAccessPath` is the default ``optimized`` engine's, over
the machine's memoized address facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.machine import REQ_BYTES, Journey, MachineState
from repro.isa import TraceOp


@dataclass(slots=True)
class AccessPlan:
    """Latency breakdown of one data access (estimate or committed)."""

    completion: int
    l1_hit: bool
    l2_hit: bool
    home: int
    journey: Optional[Journey] = None


class AccessPath:
    """Load/store execution over the shared machine state."""

    def __init__(self, machine: MachineState):
        self.m = machine

    # ------------------------------------------------------------------
    def access(
        self,
        core: int,
        addr: int,
        now: int,
        commit: bool,
        allocate_l1: bool = True,
        pc: int = -1,
    ) -> AccessPlan:
        """Simulate a load/store of ``addr`` issued by ``core`` at ``now``.

        With ``commit=False`` this is a pure estimate: no cache, network,
        port, or DRAM state changes.
        """
        m = self.m
        cfg = m.cfg
        l1 = m.l1[core]
        home = cfg.l2_home_node(addr)
        if commit:
            res = l1.access(addr, allocate=allocate_l1)
            l1_hit = res.hit
        else:
            l1_hit = l1.probe(addr)
        if l1_hit:
            if commit:
                m.stats.l1_hits += 1
                m.record_pc(pc, l1_hit=True)
            return AccessPlan(now + cfg.l1.access_latency, True, False, home)

        if commit:
            m.stats.l1_misses += 1
        journey = Journey(t_issue=now) if commit else None
        t = now + cfg.l1.access_latency  # L1 lookup before going out
        t_req, req_links = m.travel(
            core, home, t, REQ_BYTES, commit, stamps=commit
        )
        # The home bank has one lookup port: concurrent requests (other
        # cores, NDC package checks) serialize here.
        t_req = m.l2_port_start(home, t_req, commit)

        # Delayed-writeback coherence: the line is dirty in a remote L1
        # and has not reached its home bank yet -> 3-hop snoop forward.
        l2_line_d = addr // cfg.l2.line_bytes
        dirty = m.dirty.get(l2_line_d)
        if dirty is not None and dirty[0] != core and dirty[1] > t_req:
            owner, _ = dirty
            t_fwd = m.travel_time(
                home, owner, t_req + cfg.l2.access_latency, REQ_BYTES, commit
            )
            t_done = m.travel_time(
                owner, core, t_fwd + cfg.l1.access_latency,
                cfg.l1.line_bytes, commit,
            )
            if commit:
                m.stats.l2_misses += 1  # a coherence miss (CME-invisible)
                m.record_pc(pc, l1_hit=False, l2_hit=False)
                if allocate_l1:
                    l1.fill(addr)
                if journey is not None:
                    journey.l2 = (home, t_req)
                    journey.links = req_links
                    m.journeys[m.l1_line(addr)] = journey
            return AccessPlan(t_done, False, False, home, journey)

        l2bank = m.l2[home]
        l2_line = addr // cfg.l2.line_bytes
        pending = m.pending_l2_fill.get(l2_line, 0)
        if commit and 0 < pending <= t_req:
            # A writeback/fill that landed in the past materializes now.
            l2bank.fill(addr)
            del m.pending_l2_fill[l2_line]
            m.dirty.pop(l2_line, None)
            pending = 0
        if commit:
            if pending > t_req:
                # In-flight fill on behalf of an earlier miss: wait for it.
                l2bank.access(addr)  # counts as a hit once the fill lands
                l2_hit = True
                t_data = max(pending, t_req + cfg.l2.access_latency)
            else:
                l2_hit = l2bank.access(addr).hit
                t_data = t_req + cfg.l2.access_latency
            if l2_hit:
                m.stats.l2_hits += 1
            else:
                m.stats.l2_misses += 1
            m.record_pc(pc, l1_hit=False, l2_hit=l2_hit)
        else:
            l2_hit = l2bank.probe(addr) or pending > t_req
            t_data = (
                max(pending, t_req + cfg.l2.access_latency)
                if pending > t_req
                else t_req + cfg.l2.access_latency
            )
        if journey is not None:
            journey.l2 = (home, t_req)

        if not l2_hit:
            mc_id = cfg.memory_controller(addr)
            mc_node = m.mesh.mc_node(mc_id)
            t_mc, mc_links = m.travel(
                home, mc_node, t_data, REQ_BYTES, commit, stamps=commit
            )
            if commit:
                t_mem = m.mcs[mc_id].access(addr, t_mc)
            else:
                t_mem = t_mc + m.mcs[mc_id].queue_delay_estimate(addr, t_mc) + \
                    m.mcs[mc_id].service_time("miss")
            if journey is not None:
                journey.mc = (mc_id, t_mc)
                journey.bank = (mc_id, cfg.dram_bank(addr), t_mem)
            # L2-line refill back to the home bank.
            t_fill, fill_links = m.travel(
                mc_node, home, t_mem, cfg.l2.line_bytes, commit, stamps=commit
            )
            if commit:
                m.l2[home].fill(addr)
                m.pending_l2_fill[l2_line] = t_fill
            t_data = t_fill
            extra_links = mc_links + fill_links
        else:
            extra_links = ()

        # L1-line transfer home -> core.
        t_done, resp_links = m.travel(
            home, core, t_data, cfg.l1.line_bytes, commit, stamps=commit
        )
        if commit and allocate_l1:
            l1.fill(addr)
        if journey is not None:
            journey.links = req_links + extra_links + resp_links
            m.journeys[m.l1_line(addr)] = journey
        return AccessPlan(t_done, False, l2_hit, home, journey)

    # ------------------------------------------------------------------
    def store(self, core: int, addr: int, now: int) -> int:
        """Commit a store: write-allocate into the L1, schedule the
        delayed writeback to the home bank.

        The store itself retires at write-buffer speed; the line reaches
        its home L2 bank only after the writeback lag, which is when it
        becomes visible to NDC packages waiting there and to other
        cores' plain reads (which snoop the owner until then).
        """
        m = self.m
        cfg = m.cfg
        l1 = m.l1[core]
        hit = l1.probe(addr)
        l1.fill(addr)
        if hit:
            m.stats.l1_hits += 1
        else:
            m.stats.l1_misses += 1
        l2_line = addr // cfg.l2.line_bytes
        home = cfg.l2_home_node(addr)
        t_wb = now + m.writeback_lag(l2_line)
        m.dirty[l2_line] = (core, t_wb)
        m.pending_l2_fill[l2_line] = t_wb
        # The operand "arrives" at its home bank at writeback time; stamp
        # the journey so arrival-window profiling sees producer-consumer
        # gaps.
        m.journeys[m.l1_line(addr)] = Journey(t_issue=now, l2=(home, t_wb))
        return now + cfg.l1.access_latency

    # ------------------------------------------------------------------
    def conventional(self, core: int, op: TraceOp, now: int) -> int:
        """Execute a compute on the core: two operand fetches + the ALU op."""
        px = self.access(core, op.addr, now, commit=True, pc=op.pc)
        py = self.access(core, op.addr2, now, commit=True, pc=op.pc)
        completion = max(px.completion, py.completion) + 1
        if op.dest is not None:
            # Result store retires through the write buffer (non-blocking).
            self.store(core, op.dest, completion)
        return completion


class FusedAccessPath(AccessPath):
    """The access path of the ``optimized`` engine.

    Byte-identical walk to :class:`AccessPath` — same hierarchy steps,
    same statistics, same cache mutations — with the per-access address
    arithmetic replaced by one memoized lookup and the Journey/stamp
    construction skipped when no window profiler will ever read it.
    :meth:`access` runs the committed walk; the default engine prices
    through :meth:`estimate`, so a ``commit=False`` call (which only
    tests make) takes the base class's walk.
    """

    def access(
        self,
        core: int,
        addr: int,
        now: int,
        commit: bool,
        allocate_l1: bool = True,
        pc: int = -1,
    ) -> AccessPlan:
        if not commit:
            return AccessPath.access(self, core, addr, now, False,
                                     allocate_l1, pc)
        m = self.m
        cfg = m.cfg
        l1 = m.l1[core]
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        home = info[0]
        stats = m.stats
        if l1.access(addr, allocate=allocate_l1).hit:
            stats.l1_hits += 1
            if pc >= 0:
                m.record_pc(pc, l1_hit=True)
            return AccessPlan(now + cfg.l1.access_latency, True, False, home)

        keep = m.keep_journeys
        journey = Journey(t_issue=now) if keep else None
        stats.l1_misses += 1
        t = now + cfg.l1.access_latency
        if keep:
            t_req, req_links = m.travel(core, home, t, REQ_BYTES, True)
        else:
            t_req = m.travel_time(core, home, t, REQ_BYTES, True)
            req_links = ()
        t_req = m.l2_port_start(home, t_req, True)

        l2_line = info[1]
        dirty = m.dirty.get(l2_line)
        if dirty is not None and dirty[0] != core and dirty[1] > t_req:
            owner = dirty[0]
            t_fwd = m.travel_time(
                home, owner, t_req + cfg.l2.access_latency, REQ_BYTES, True
            )
            t_done = m.travel_time(
                owner, core, t_fwd + cfg.l1.access_latency,
                cfg.l1.line_bytes, True,
            )
            stats.l2_misses += 1
            if pc >= 0:
                m.record_pc(pc, l1_hit=False, l2_hit=False)
            if allocate_l1:
                l1.fill(addr)
            if journey is not None:
                journey.l2 = (home, t_req)
                journey.links = req_links
                m.journeys[addr // cfg.l1.line_bytes] = journey
            return AccessPlan(t_done, False, False, home, journey)

        l2bank = m.l2[home]
        pending = m.pending_l2_fill.get(l2_line, 0)
        if 0 < pending <= t_req:
            l2bank.fill(addr)
            del m.pending_l2_fill[l2_line]
            m.dirty.pop(l2_line, None)
            pending = 0
        if pending > t_req:
            l2bank.access(addr)
            l2_hit = True
            t_data = max(pending, t_req + cfg.l2.access_latency)
        else:
            l2_hit = l2bank.access(addr).hit
            t_data = t_req + cfg.l2.access_latency
        if l2_hit:
            stats.l2_hits += 1
        else:
            stats.l2_misses += 1
        if pc >= 0:
            m.record_pc(pc, l1_hit=False, l2_hit=l2_hit)
        if journey is not None:
            journey.l2 = (home, t_req)

        if not l2_hit:
            mc_id = info[2]
            mc_node = info[3]
            if keep:
                t_mc, mc_links = m.travel(
                    home, mc_node, t_data, REQ_BYTES, True
                )
            else:
                t_mc = m.travel_time(home, mc_node, t_data, REQ_BYTES, True)
                mc_links = ()
            t_mem = m.mcs[mc_id].access(addr, t_mc)
            if journey is not None:
                journey.mc = (mc_id, t_mc)
                journey.bank = (mc_id, info[4], t_mem)
            if keep:
                t_fill, fill_links = m.travel(
                    mc_node, home, t_mem, cfg.l2.line_bytes, True
                )
            else:
                t_fill = m.travel_time(
                    mc_node, home, t_mem, cfg.l2.line_bytes, True
                )
                fill_links = ()
            l2bank.fill(addr)
            m.pending_l2_fill[l2_line] = t_fill
            t_data = t_fill
            extra_links = mc_links + fill_links
        else:
            extra_links = ()

        if keep:
            t_done, resp_links = m.travel(
                home, core, t_data, cfg.l1.line_bytes, True
            )
        else:
            t_done = m.travel_time(
                home, core, t_data, cfg.l1.line_bytes, True
            )
            resp_links = ()
        if allocate_l1:
            l1.fill(addr)
        if journey is not None:
            journey.links = req_links + extra_links + resp_links
            m.journeys[addr // cfg.l1.line_bytes] = journey
        return AccessPlan(t_done, False, l2_hit, home, journey)

    # ------------------------------------------------------------------
    def estimate(self, core: int, addr: int, now: int, l1_hit: bool) -> int:
        """Completion cycle of :meth:`access` with ``commit=False``.

        The pure-estimate walk with every commit-only branch (stats,
        journeys, cache mutation, pc bookkeeping) compiled out and the
        ``AccessPlan`` allocation skipped — the compute hot loop only
        ever reads ``.completion`` of its two operand estimates.  The
        caller supplies the L1 probe it already took.
        """
        m = self.m
        cfg = m.cfg
        l1_lat = cfg.l1.access_latency
        if l1_hit:
            return now + l1_lat
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        home = info[0]
        t_req = m.travel_time(core, home, now + l1_lat, REQ_BYTES, False)
        t_req = m.l2_port_start(home, t_req, False)
        l2_lat = cfg.l2.access_latency
        l2_line = info[1]
        dirty = m.dirty.get(l2_line)
        if dirty is not None and dirty[0] != core and dirty[1] > t_req:
            owner = dirty[0]
            t_fwd = m.travel_time(home, owner, t_req + l2_lat, REQ_BYTES,
                                  False)
            return m.travel_time(owner, core, t_fwd + l1_lat,
                                 cfg.l1.line_bytes, False)
        pending = m.pending_l2_fill.get(l2_line, 0)
        if pending > t_req:
            t_data = max(pending, t_req + l2_lat)
        else:
            t_data = t_req + l2_lat
            if not m.l2[home].probe(addr):
                mc_node = info[3]
                t_mc = m.travel_time(home, mc_node, t_data, REQ_BYTES, False)
                mc = m.mcs[info[2]]
                t_mem = t_mc + mc.queue_delay_estimate(addr, t_mc) + \
                    mc.service_time("miss")
                t_data = m.travel_time(mc_node, home, t_mem,
                                       cfg.l2.line_bytes, False)
        return m.travel_time(home, core, t_data, cfg.l1.line_bytes, False)

    # ------------------------------------------------------------------
    def store(self, core: int, addr: int, now: int) -> int:
        m = self.m
        cfg = m.cfg
        l1 = m.l1[core]
        hit = l1.probe(addr)
        l1.fill(addr)
        if hit:
            m.stats.l1_hits += 1
        else:
            m.stats.l1_misses += 1
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        l2_line = info[1]
        t_wb = now + m.writeback_lag(l2_line)
        m.dirty[l2_line] = (core, t_wb)
        m.pending_l2_fill[l2_line] = t_wb
        if m.keep_journeys:
            m.journeys[addr // cfg.l1.line_bytes] = Journey(
                t_issue=now, l2=(info[0], t_wb)
            )
        return now + cfg.l1.access_latency

