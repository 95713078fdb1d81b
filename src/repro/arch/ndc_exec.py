"""NDC offload execution: the life of a compute package.

:class:`NdcExecutor` models everything that happens after a scheme
decides to offload: offload-table admission at the core's LD/ST unit,
the package flight (committed link bandwidth), the station's residency
checks, service-table admission, bounded waiting, the near-data compute
itself, the one-word result return, and — on every failure path — the
conventional fallback with its wasted-wait penalty (exactly how the
naive waiting strategies of Fig. 4 lose).

Every notable transition publishes a typed event on the machine's
:class:`~repro.arch.events.EventBus` when one is attached (offload
issued / bounced / parked / timed-out / completed); publish sites are
guarded so an uninstrumented run constructs nothing.
"""

from __future__ import annotations

from repro.arch.access import AccessPath
from repro.arch.events import (
    OffloadBounced,
    OffloadCompleted,
    OffloadIssued,
    OffloadParked,
    OffloadTimedOut,
)
from repro.arch.machine import PKG_BYTES, WORD_BYTES, Journey, MachineState
from repro.arch.stats import NEVER
from repro.config import NdcLocation
from repro.isa import TraceOp
from repro.schemes import Decision, NdcScheme, StationCandidate


class NdcExecutor:
    """Execute offload decisions over the shared machine state."""

    def __init__(
        self, machine: MachineState, access: AccessPath, scheme: NdcScheme
    ):
        self.m = machine
        self.access = access
        self.scheme = scheme

    # ------------------------------------------------------------------
    def _bounce(self, core: int, op: TraceOp, cand, cycle: int, reason: str):
        bus = self.m.bus
        if bus is not None:
            bus.emit(OffloadBounced(
                cycle=cycle, core=core, pc=op.pc,
                location=cand.location.name.lower(), reason=reason,
            ))

    # ------------------------------------------------------------------
    def exec_ndc(
        self, core: int, op: TraceOp, now: int, decision: Decision
    ) -> int:
        """Model the offload chosen by the scheme."""
        m = self.m
        cfg = m.cfg
        bus = m.bus
        cand = decision.station
        assert cand is not None
        unit = m.unit(cand.location, cand.unit_key)
        pkg_id = m.new_package_id()
        loc_name = cand.location.name.lower()

        observed = cand.window
        self.scheme.observe_window(
            op.pc, 501 if observed >= NEVER else min(observed, 501)
        )

        if not unit.can_execute(op.op):
            self._bounce(core, op, cand, now, "op_restricted")
            m.stats.ndc.conventional += 1
            return self.access.conventional(core, op, now)

        limit = unit.effective_limit(decision.wait_limit)
        limit = min(limit, cfg.ndc.max_wait_cycles)
        if cand.location == NdcLocation.NETWORK:
            # Link buffers cannot hold a payload longer than the buffer
            # residence window, whatever the scheme asked for.
            limit = min(limit, cfg.noc.meet_window)

        # Offload-table admission at the LD/ST unit: the entry is held
        # until the package is expected back (bounded by the wait limit).
        table = m.offload_tables[core]
        expect_back = max(cand.pkg_arrival, now) + limit + cand.d_result
        if not table.issue(pkg_id, now, expect_back):
            self._bounce(core, op, cand, now, "offload_table_full")
            m.stats.ndc.aborted_table_full += 1
            m.stats.ndc.conventional += 1
            return self.access.conventional(core, op, now)

        if bus is not None:
            bus.emit(OffloadIssued(
                cycle=now, core=core, pc=op.pc, location=loc_name,
                node=cand.node, wait_limit=limit,
            ))

        # Package travels to the station (committed: consumes link bandwidth).
        pkg_arrive = m.travel_time(
            core, cand.node, now + cfg.ndc.package_overhead, PKG_BYTES,
            commit=True,
        )
        pkg_arrive = max(pkg_arrive, cand.pkg_arrival)

        # Stations can tell immediately when an operand provably cannot
        # arrive: memory-side units see upstream-cached (dirty or
        # L2-resident) operands via the directory, and an L2 bank knows
        # statically that it is not the home of an address.  Such
        # packages bounce after the check instead of parking.  The blind
        # waiting strategies of Section 4 are limit studies of waiting
        # itself and ignore these checks.
        provably_never = (
            cand.location in (NdcLocation.MEMCTRL, NdcLocation.MEMORY)
            and (cand.avail_x >= NEVER or cand.avail_y >= NEVER)
        ) or (
            cand.location == NdcLocation.CACHE
            and (
                cfg.l2_home_node(op.addr) != cand.node
                or cfg.l2_home_node(op.addr2) != cand.node
            )
        )
        if decision.respect_residency_check and provably_never:
            self._bounce(core, op, cand, pkg_arrive, "residency_check")
            m.stats.ndc.aborted_timeout += 1
            m.stats.ndc.conventional += 1
            t_check = pkg_arrive + cfg.memory.dram.bus_cycles
            px = self.access.access(core, op.addr, t_check, commit=True)
            py = self.access.access(core, op.addr2, t_check, commit=True)
            return max(px.completion, py.completion) + 1

        # The time-out register bounds the wait for the *first* operand as
        # well: a package that finds neither operand within the limit is
        # bounced back to the core.
        if cand.first_avail >= NEVER or cand.first_avail > pkg_arrive + limit:
            abort = unit.park_until_timeout(pkg_arrive, limit)
            if abort is None:
                self._bounce(core, op, cand, pkg_arrive, "service_table_full")
                m.stats.ndc.aborted_table_full += 1
                abort = pkg_arrive
            else:
                if bus is not None:
                    bus.emit(OffloadParked(
                        cycle=pkg_arrive, core=core, pc=op.pc,
                        location=loc_name, node=cand.node, wait_needed=limit,
                    ))
                    bus.emit(OffloadTimedOut(
                        cycle=abort, core=core, pc=op.pc,
                        location=loc_name, node=cand.node,
                        waited=abort - pkg_arrive,
                    ))
                m.stats.ndc.aborted_timeout += 1
            m.stats.ndc.conventional += 1
            px = self.access.access(core, op.addr, abort, commit=True)
            py = self.access.access(core, op.addr2, abort, commit=True)
            return max(px.completion, py.completion) + 1

        t_first = max(pkg_arrive, cand.first_avail)
        wait_needed = max(0, cand.ready - t_first) if cand.ready < NEVER else NEVER

        # Memory-side computes: perform the two DRAM reads for real, so
        # the compute sees the *committed* bank serialization (which may
        # exceed the decision-time estimate under contention).
        if (
            cand.ready < NEVER
            and cand.location in (NdcLocation.MEMCTRL, NdcLocation.MEMORY)
        ):
            mc = m.mcs[cfg.memory_controller(op.addr)]
            bus_cycles = cfg.memory.dram.bus_cycles
            tx, ty = mc.access_pair(op.addr, op.addr2, pkg_arrive)
            if cand.location == NdcLocation.MEMCTRL:
                tx += bus_cycles
                ty += bus_cycles
            t_first = max(pkg_arrive, min(tx, ty))
            wait_needed = max(0, max(tx, ty) - t_first)

        if cand.ready < NEVER and wait_needed <= limit:
            # --- partner arrives in time: attempt the near-data compute --
            res = unit.try_compute(t_first, wait_needed)
            if res is None:
                # Service table full: the package bounces back to the core.
                self._bounce(core, op, cand, t_first, "service_table_full")
                m.stats.ndc.aborted_table_full += 1
                m.stats.ndc.conventional += 1
                px = self.access.access(core, op.addr, pkg_arrive, commit=True)
                py = self.access.access(core, op.addr2, pkg_arrive, commit=True)
                return max(px.completion, py.completion) + 1
            start, done = res
            m.stats.wait_cycles += wait_needed
            m.stats.ndc.performed[cand.location] += 1
            m.stats.opportunities_exercised += 1
            t_result = done + cand.extra_latency
            # The one-word result consumes real link bandwidth on its way
            # to the consumer.
            res_arrive = m.travel_time(
                cand.node, core, t_result, WORD_BYTES, commit=True
            )
            completion = max(res_arrive, t_result + cand.d_result)
            self.commit_side_effects(core, op, cand, done)
            if bus is not None:
                bus.emit(OffloadCompleted(
                    cycle=completion, core=core, pc=op.pc,
                    location=loc_name, node=cand.node, waited=wait_needed,
                ))
            if m.collect_window_series and observed < NEVER:
                m.stats.window_series.setdefault(op.pc, []).append(observed)
            return max(completion, now + 1)

        # --- partner late or never: park until the time-out, then fall
        # back to conventional execution on the core ----------------------
        abort = unit.park_until_timeout(t_first, limit)
        if abort is None:
            # Not even admitted: bounce straight back.
            self._bounce(core, op, cand, t_first, "service_table_full")
            m.stats.ndc.aborted_table_full += 1
            abort = pkg_arrive
        else:
            if bus is not None:
                bus.emit(OffloadParked(
                    cycle=t_first, core=core, pc=op.pc,
                    location=loc_name, node=cand.node,
                    wait_needed=min(wait_needed, NEVER),
                ))
                bus.emit(OffloadTimedOut(
                    cycle=abort, core=core, pc=op.pc,
                    location=loc_name, node=cand.node,
                    waited=abort - t_first,
                ))
            m.stats.ndc.aborted_timeout += 1
        m.stats.ndc.conventional += 1
        if cand.location == NdcLocation.NETWORK:
            # A failed link-buffer meet costs almost nothing extra: the
            # operand responses were already in flight to the core and
            # simply continue past the router.
            abort = now
        px = self.access.access(core, op.addr, abort, commit=True)
        py = self.access.access(core, op.addr2, abort, commit=True)
        return max(px.completion, py.completion) + 1

    # ------------------------------------------------------------------
    def commit_side_effects(
        self, core: int, op: TraceOp, cand: StationCandidate, t_compute: int
    ) -> None:
        """State changes of a successful near-data compute.

        The operand lines do *not* enter the requesting L1.  Lines read
        from DRAM for an MC/in-bank compute are not installed in L2
        either (only the result word moves up); lines already in L2 stay
        there (LRU-touched).  The result, if stored, is installed at its
        own home bank.
        """
        m = self.m
        cfg = m.cfg
        x, y = op.addr, op.addr2
        if cand.location == NdcLocation.CACHE:
            m.l2[cand.node].access(x)
            m.l2[cand.node].access(y)
        # MEMCTRL/MEMORY: the DRAM reads were committed on the success
        # path itself (their serialization times the compute).
        elif cand.location == NdcLocation.NETWORK:
            # Operand responses were consumed mid-route; their partial
            # line transfers still consumed link bandwidth, and any line
            # fetched from memory refilled its home L2 bank on the way.
            for addr in (x, y):
                home = cfg.l2_home_node(addr)
                if home != cand.node:
                    m.travel_time(
                        home, cand.node, t_compute - 1,
                        cfg.l1.line_bytes, commit=True,
                    )
                if not m.l2[home].probe(addr):
                    m.l2[home].fill(addr)
        if op.dest is not None:
            # The result is stored near data: it lands directly in its
            # home L2 bank (no dirty residence in any L1).
            home = cfg.l2_home_node(op.dest)
            m.l2[home].fill(op.dest)
            l2_line = op.dest // cfg.l2.line_bytes
            m.dirty.pop(l2_line, None)
            m.pending_l2_fill.pop(l2_line, None)
            m.journeys[m.l1_line(op.dest)] = Journey(
                t_issue=t_compute, l2=(home, t_compute)
            )
