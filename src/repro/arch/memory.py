"""Memory controllers: FR-FCFS scheduling over banked row-buffer DRAM.

The timing model is queue-based rather than cycle-by-cycle: each bank
is a :class:`~repro.arch.engine.ResourceTimeline` plus the currently
open row.  A request arriving at time ``t`` is charged

* queueing delay until its bank has a free slot long enough for the
  service (a request may claim a *gap* in front of usage committed
  further into the future — the seed engine's commit-ahead clock could
  only ever append),
* a DRAM service time depending on the row-buffer outcome
  (hit / closed-bank miss / conflict), and
* FR-FCFS is approximated by granting row-buffer *hits* a scheduling
  bonus: a hit may bypass the queue up to ``frfcfs_bypass`` pending
  conflicting requests (first-ready), which is the policy's essential
  behaviour — hits are served before older conflicting requests.

Known approximation: the open-row state follows *commit order* (the
order requests are simulated), not granted start-time order; a request
gap-filled in front of a future reservation still sees the last
committed row.  Second-order for the page-local access patterns the
benchmarks generate.

This reproduces the latency *structure* (locality in pages -> fast, bank
conflicts -> slow, hot controllers -> queueing) that the paper's
arrival-window measurements depend on, without a DRAM-cycle simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.engine import ResourceTimeline
from repro.arch.events import DramRowConflict, EventBus
from repro.config import ArchConfig, DramConfig


class DramBankState:
    """Per-bank open-row state over a reserve/commit occupancy timeline."""

    __slots__ = ("open_row", "queued", "timeline")

    def __init__(self, name: str = "dram"):
        self.open_row = -1          #: -1 = closed (precharged)
        self.queued = 0             #: requests that found the bank busy
        self.timeline = ResourceTimeline(name)

    @property
    def ready_at(self) -> int:
        """Upper bound: cycle at which every reserved op has finished."""
        return self.timeline.free_at

    def outcome(self, row: int) -> str:
        if self.open_row == row:
            return "hit"
        if self.open_row == -1:
            return "miss"
        return "conflict"


@dataclass
class MemoryStats:
    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    total_queue_cycles: int = 0
    total_service_cycles: int = 0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.requests if self.requests else 0.0


class MemoryController:
    """One FR-FCFS memory controller with its DRAM banks."""

    def __init__(
        self,
        cfg: ArchConfig,
        controller_id: int,
        bus: Optional[EventBus] = None,
    ):
        self.cfg = cfg
        self.controller_id = controller_id
        self.bus = bus
        dram: DramConfig = cfg.memory.dram
        self.dram = dram
        self.banks: List[DramBankState] = [
            DramBankState(f"dram:{controller_id}:{b}")
            for b in range(dram.banks_per_controller)
        ]
        self.stats = MemoryStats()
        #: how many queued conflicting requests a row hit may bypass
        self.frfcfs_bypass = 4

    # ------------------------------------------------------------------
    def service_time(self, outcome: str) -> int:
        if outcome == "hit":
            return self.dram.t_row_hit
        if outcome == "miss":
            return self.dram.t_row_miss
        return self.dram.t_row_conflict

    def access(self, addr: int, arrival: int) -> int:
        """Serve a request arriving at cycle ``arrival``.

        Returns the *completion* cycle (data available at the controller).
        """
        bank_idx = self.cfg.dram_bank(addr)
        row = self.cfg.dram_row(addr)
        bank = self.banks[bank_idx]

        outcome = bank.outcome(row)
        service = self.service_time(outcome)

        # One operation at a time per bank; FR-FCFS's essential effect —
        # row hits are served with a bare CAS while the row stays open —
        # is captured by the open-row outcome model above.
        start = bank.timeline.reserve(arrival, service)
        completion = start + service
        bank.open_row = row
        bank.queued = bank.queued + 1 if start > arrival else 1

        self.stats.requests += 1
        if outcome == "hit":
            self.stats.row_hits += 1
        elif outcome == "miss":
            self.stats.row_misses += 1
        else:
            self.stats.row_conflicts += 1
            if self.bus is not None:
                self.bus.emit(DramRowConflict(
                    cycle=start, controller=self.controller_id, bank=bank_idx
                ))
        self.stats.total_queue_cycles += start - arrival
        self.stats.total_service_cycles += service
        return completion

    def access_pair(
        self, addr_x: int, addr_y: int, arrival: int
    ) -> Tuple[int, int]:
        """Serve the two operand reads of one NDC package.

        The package delivers both read commands to the controller at
        ``arrival``; FR-FCFS issues them consecutively.  Same-bank pairs
        therefore occupy one contiguous bank window — the second read's
        row outcome follows the first's open row — instead of two
        independent reservations that a gap-filling timeline could
        spread arbitrarily far apart.  Different-bank pairs proceed in
        their banks independently.

        Returns the completion cycles ``(t_x, t_y)``.
        """
        bx = self.cfg.dram_bank(addr_x)
        by = self.cfg.dram_bank(addr_y)
        if bx != by:
            return self.access(addr_x, arrival), self.access(addr_y, arrival)
        bank = self.banks[bx]
        row_x = self.cfg.dram_row(addr_x)
        row_y = self.cfg.dram_row(addr_y)
        out_x = bank.outcome(row_x)
        svc_x = self.service_time(out_x)
        out_y = "hit" if row_y == row_x else "conflict"
        svc_y = self.service_time(out_y)
        start = bank.timeline.reserve(arrival, svc_x + svc_y)
        bank.open_row = row_y
        bank.queued = bank.queued + 1 if start > arrival else 1
        self.stats.requests += 2
        for out in (out_x, out_y):
            if out == "hit":
                self.stats.row_hits += 1
            elif out == "miss":
                self.stats.row_misses += 1
            else:
                self.stats.row_conflicts += 1
                if self.bus is not None:
                    self.bus.emit(DramRowConflict(
                        cycle=start, controller=self.controller_id, bank=bx
                    ))
        self.stats.total_queue_cycles += start - arrival
        self.stats.total_service_cycles += svc_x + svc_y
        return start + svc_x, start + svc_x + svc_y

    def queue_delay_estimate(self, addr: int, arrival: int) -> int:
        """Time the request would wait for a bank slot (reserve phase
        only — nothing is claimed).  Used for NDC-at-MC arrival timing:
        the operand is 'present' at the MC from arrival until completion."""
        bank = self.banks[self.cfg.dram_bank(addr)]
        span = self.service_time(bank.outcome(self.cfg.dram_row(addr)))
        return bank.timeline.earliest_free(arrival, span) - arrival

    def timelines(self) -> List[ResourceTimeline]:
        return [b.timeline for b in self.banks]
