"""NDC-enabling hardware structures (Section 2 / Fig. 1).

* :class:`OffloadTable` — in each core's LD/ST unit; tracks in-flight
  pre-compute (offload) instructions.  When full, further offloads are
  refused and the computation executes conventionally.
* :class:`ServiceTable` / :class:`NdcUnit` — per NDC ALU.  The service
  table tracks received NDC packages **and processes them in order**
  (Section 2): an entry whose partner operand has not arrived blocks
  the entries behind it until it either completes or its time-out
  fires.  This head-of-line blocking is the paper's central cost of
  waiting — "if B is late, A will occupy resources till B arrives" —
  and is why wait-forever strategies collapse while bounded time-outs
  stay tolerable.

Both tables are occupancy views over a capacity timeline
(:mod:`repro.arch.engine`): each admitted package holds its slot from
the first operand's arrival until it computes or times out; admission,
capacity, and head-of-line clearance are all resolved against those
reserved intervals.  The timeline class is a constructor argument,
which each engine's machine class supplies.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.engine import ReferenceCapacityTimeline
from repro.config import NdcConfig, NdcLocation, OpClass


class NdcUnitStats:
    __slots__ = (
        "completed", "timed_out", "rejected_full", "rejected_op",
        "total_wait_cycles", "total_hol_cycles",
    )

    def __init__(self) -> None:
        self.completed = 0
        self.timed_out = 0
        self.rejected_full = 0
        self.rejected_op = 0
        self.total_wait_cycles = 0
        #: delay added by in-order (head-of-line) service
        self.total_hol_cycles = 0


class ServiceTable:
    """Bounded, in-order table of package occupancy intervals."""

    def __init__(self, capacity: int, timeline: type = ReferenceCapacityTimeline):
        if capacity <= 0:
            raise ValueError("service table needs at least one entry")
        self.capacity = capacity
        self._slots = timeline(capacity, "service")

    def purge(self, now: int) -> int:
        """Drop entries that have left the table by ``now``."""
        return self._slots.purge(now)

    def active_count(self, now: int) -> int:
        return self._slots.live_count(now)

    @property
    def occupancy(self) -> int:
        return self._slots.occupancy

    def full(self, now: int) -> bool:
        return self._slots.full(now)

    def hol_clearance(self, now: int) -> int:
        """Cycle by which all currently queued entries have left.

        In-order processing means a new package cannot compute before
        every earlier entry has either computed or timed out.
        """
        return self._slots.latest_end(now)

    def admit(self, package_id: int, arrive: int, leave: int) -> bool:
        return self._slots.admit(package_id, arrive, leave)


class OffloadTable:
    """Bounded table of in-flight offloads in a core's LD/ST unit.

    Backed by the same capacity timeline as the service table: an
    offload occupies its entry from issue until its package completes
    or bounces.
    """

    def __init__(self, capacity: int, timeline: type = ReferenceCapacityTimeline):
        if capacity <= 0:
            raise ValueError("offload table needs at least one entry")
        self.capacity = capacity
        self._slots = timeline(capacity, "offload")

    def purge(self, now: int) -> None:
        self._slots.purge(now)

    def issue(self, package_id: int, now: int, retire_at: int) -> bool:
        return self._slots.admit(package_id, now, max(retire_at, now))

    def __len__(self) -> int:
        return self._slots.occupancy


class NdcUnit:
    """One NDC ALU with its in-order service table and time-out register.

    ``station_key`` identifies the physical resource: ``("link", link_id)``,
    ``("l2", node)``, ``("mc", controller)``, or ``("mem", controller, bank)``.
    """

    def __init__(
        self,
        location: NdcLocation,
        station_key: Tuple,
        cfg: NdcConfig,
        timeline: type = ReferenceCapacityTimeline,
    ):
        self.location = location
        self.station_key = station_key
        self.cfg = cfg
        self.table = ServiceTable(cfg.service_table_entries, timeline)
        #: hardware time-out register (0 = disabled); per-package limits
        #: from the pre-compute instruction / scheme are applied on top.
        self.timeout = cfg.timeout_cycles
        self.stats = NdcUnitStats()
        self._next_id = 0

    def can_execute(self, op: OpClass) -> bool:
        return self.cfg.op_allowed(op)

    def effective_limit(self, requested: int) -> int:
        if self.timeout > 0:
            return min(requested, self.timeout)
        return requested

    # ------------------------------------------------------------------
    def try_compute(
        self, t_arrive: int, wait: int, op_latency: int = 1
    ) -> Optional[Tuple[int, int]]:
        """Admit a package whose partner arrives ``wait`` cycles after the
        first operand reached the station at ``t_arrive``.

        Returns ``(start, done)`` — the compute's issue and completion
        cycles after in-order head-of-line clearance — or None when the
        service table is full (the structural bounce).
        """
        pkg = self._next_id
        self._next_id += 1
        if self.table.full(t_arrive):
            self.stats.rejected_full += 1
            return None
        hol = self.table.hol_clearance(t_arrive)
        ready = t_arrive + wait
        start = max(ready, hol)
        done = start + op_latency
        self.table.admit(pkg, t_arrive, done)
        self.stats.completed += 1
        self.stats.total_wait_cycles += wait
        self.stats.total_hol_cycles += max(0, start - ready)
        return start, done

    def park_until_timeout(self, t_arrive: int, limit: int) -> Optional[int]:
        """Admit a package whose partner will not arrive in time.

        The entry occupies its slot until the time-out fires; returns
        the abort cycle, or None when the table is already full (the
        package bounces back immediately instead).
        """
        pkg = self._next_id
        self._next_id += 1
        if self.table.full(t_arrive):
            self.stats.rejected_full += 1
            return None
        abort = t_arrive + limit
        self.table.admit(pkg, t_arrive, abort)
        self.stats.timed_out += 1
        self.stats.total_wait_cycles += limit
        return abort

    def utilization(self) -> Tuple[int, int, int]:
        """(admissions, completed, rejections) for the stats summary."""
        slots = self.table._slots
        return slots.admissions, self.stats.completed, slots.rejections
