"""Two-phase reserve/commit resource timelines — the simulation engine core.

Every contended hardware resource in the model (a NoC link, an L2 bank
port, a DRAM bank, an NDC service/offload table) is represented by a
timeline that answers two questions:

* :meth:`ResourceTimeline.earliest_free` — *reserve phase*: "if I
  wanted ``span`` cycles of this resource starting no earlier than
  ``now``, when would I get them?"  Pure: answers without mutating.
* :meth:`ResourceTimeline.reserve` — *commit phase*: actually claim the
  earliest such slot and return its start cycle.

The split retires the seed simulator's *commit-ahead* approximation.
There, each resource kept a single ``free_at`` clock, so a long op that
committed its usage deep into the future (e.g. a parked offload plus
its fallback fetches) forced every temporally-earlier op from other
cores to queue behind it — over-serializing exactly the bursts of
concurrent offloads the paper's Fig. 4 waiting schemes stress.  A
timeline instead keeps the *set of reserved intervals*: an op that
needs the resource at an earlier cycle slides into the gap in front of
a tentatively-held future slot instead of behind it.

``mode="commit-ahead"`` restores the seed behaviour (append after the
last reservation, gaps are never reused).  It is test-only: the timeline
properties and the contention-regression tests use it to pin that the
reserve/commit mode strictly reduces the serialization the
approximation used to add; no simulator option selects it.

:class:`CapacityTimeline` is the companion abstraction for *slotted*
resources (NDC service and offload tables): reservations are intervals
too, but the constraint is a maximum number of *concurrently live*
intervals rather than mutual exclusion.  It has two implementations
of the same semantics: :class:`CapacityTimeline` (heap-backed, so
``purge``/``latest_end``/``full`` stop rescanning every live entry)
for the default engine, and :class:`ReferenceCapacityTimeline` (the
rescanning closed form) for the ``"reference"`` engine.  Each engine's
machine class names its implementation;
:data:`repro.arch.simulator.ENGINES` is the only code that maps a
profile name to classes.

Engine *profiles* are *performance knobs*: they must never fork
experiment cache keys (pinned by a test in
``tests/test_differential.py``).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Dict, List, Tuple

#: Engine scheduling modes.
RESERVE_COMMIT = "reserve-commit"
COMMIT_AHEAD = "commit-ahead"
ENGINE_MODES = (RESERVE_COMMIT, COMMIT_AHEAD)

#: Engine implementation profiles (same semantics, different speed).
OPTIMIZED = "optimized"
REFERENCE = "reference"
ENGINE_PROFILES = (OPTIMIZED, REFERENCE)


def check_engine_profile(profile: str) -> None:
    """Reject an unknown engine profile, naming the valid set."""
    if profile not in ENGINE_PROFILES:
        valid = ", ".join(repr(p) for p in ENGINE_PROFILES)
        raise ValueError(
            f"unknown engine profile {profile!r} (valid profiles: {valid})"
        )


class ResourceTimeline:
    """Reserved-interval schedule of one mutually-exclusive resource.

    Intervals are half-open ``[start, end)`` and never overlap.
    Adjacent intervals are merged on insertion, so densely packed
    usage (the common case under gap-filling) collapses to a handful
    of entries and keeps both phases ``O(log n)``-ish.
    """

    __slots__ = (
        "name", "gap_fill", "_starts", "_ends",
        "busy_cycles", "stall_cycles", "reservations",
    )

    def __init__(self, name: str = "", mode: str = RESERVE_COMMIT):
        if mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {mode!r}")
        self.name = name
        self.gap_fill = mode == RESERVE_COMMIT
        self._starts: List[int] = []
        self._ends: List[int] = []
        #: accounting for the per-resource utilization summary
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.reservations = 0

    # -- reserve phase -------------------------------------------------
    def earliest_free(self, now: int, span: int) -> int:
        """Earliest ``t >= now`` at which ``span`` cycles fit.  Pure."""
        if span <= 0:
            return now
        if not self._starts:
            return now
        if not self.gap_fill:
            return max(now, self._ends[-1])
        # Skip every interval that ends at or before `now`, then walk
        # the remaining gaps in order.
        i = bisect_right(self._ends, now)
        t = now
        starts, ends = self._starts, self._ends
        n = len(starts)
        while i < n:
            if starts[i] - t >= span:
                return t
            if ends[i] > t:
                t = ends[i]
            i += 1
        return t

    # -- commit phase --------------------------------------------------
    def reserve(self, now: int, span: int) -> int:
        """Claim the earliest ``span``-cycle slot at or after ``now``.

        Returns the granted start cycle (``>= now``); the difference is
        the contention stall this op suffered on this resource.

        Single pass: the gap walk of :meth:`earliest_free` already pins
        the insertion index, so commit does not re-search the interval
        list (the hot path used to bisect twice per reservation).
        """
        self.reservations += 1
        if span <= 0:
            return now
        starts, ends = self._starts, self._ends
        n = len(starts)
        if not n:
            self.busy_cycles += span
            starts.append(now)
            ends.append(now + span)
            return now
        if not self.gap_fill:
            start = ends[-1]
            if start < now:
                start = now
            self.busy_cycles += span
            self.stall_cycles += start - now
            if ends[-1] == start:
                ends[-1] = start + span
            else:
                starts.append(start)
                ends.append(start + span)
            return start
        # Walk the gaps exactly as earliest_free does, remembering the
        # index in front of which the claimed slot lands.
        i = bisect_right(ends, now)
        t = now
        while i < n:
            if starts[i] - t >= span:
                break
            if ends[i] > t:
                t = ends[i]
            i += 1
        start = t
        end = t + span
        self.busy_cycles += span
        self.stall_cycles += start - now
        # Merge with the predecessor when touching (never overlapping:
        # the slot was chosen from genuinely free space).
        if i > 0 and ends[i - 1] == start:
            if i < n and starts[i] == end:
                # Bridges the gap exactly: predecessor + successor fuse.
                ends[i - 1] = ends[i]
                del starts[i]
                del ends[i]
            else:
                ends[i - 1] = end
        elif i < n and starts[i] == end:
            starts[i] = start
        else:
            starts.insert(i, start)
            ends.insert(i, end)
        return start

    # -- introspection -------------------------------------------------
    @property
    def free_at(self) -> int:
        """Upper bound: the end of the last reserved interval."""
        return self._ends[-1] if self._ends else 0

    @property
    def interval_count(self) -> int:
        return len(self._starts)

    def intervals(self) -> List[Tuple[int, int]]:
        return list(zip(self._starts, self._ends))

    def utilization(self) -> Tuple[int, int, int]:
        """(reservations, busy cycles, contention-stall cycles)."""
        return self.reservations, self.busy_cycles, self.stall_cycles


class CapacityTimeline:
    """Interval schedule of a ``capacity``-slot table.

    Tracks per-id live intervals ``[start, end)``; an interval is live
    at ``t`` while ``end > t``.  Used by the NDC service and offload
    tables, whose constraint is occupancy (how many packages hold a
    slot at once), not mutual exclusion.

    This is the *optimized* implementation: a pair of lazily-invalidated
    end heaps keeps ``purge`` amortized ``O(log n)`` per admitted entry
    and ``latest_end`` ``O(log n)``, where the reference implementation
    (:class:`ReferenceCapacityTimeline`, the pre-optimization semantics)
    rescans every live entry on each call.  The two are held equivalent
    by hypothesis property tests with the reference as oracle.
    """

    __slots__ = (
        "name", "capacity", "_entries", "_min_ends", "_max_ends",
        "admissions", "rejections", "late_updates",
    )

    def __init__(self, capacity: int, name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        #: id -> (start, end); dict order is admission order, which is
        #: what the in-order service tables' head-of-line logic needs.
        self._entries: Dict[int, Tuple[int, int]] = {}
        #: (end, id) min-heap driving purge; stale pairs (an update_end
        #: moved the entry, or the id was re-admitted) are skipped when
        #: they surface.
        self._min_ends: List[Tuple[int, int]] = []
        #: (-end, id) max-heap driving latest_end; same lazy invalidation.
        self._max_ends: List[Tuple[int, int]] = []
        self.admissions = 0
        self.rejections = 0
        #: ``update_end`` calls that arrived after their entry was purged
        #: (observability for the late-update no-op; see ``update_end``).
        self.late_updates = 0

    def purge(self, now: int) -> int:
        """Drop entries whose interval has ended by ``now``."""
        entries = self._entries
        heap = self._min_ends
        dropped = 0
        while heap and heap[0][0] <= now:
            end, entry_id = heapq.heappop(heap)
            cur = entries.get(entry_id)
            if cur is not None and cur[1] == end:
                del entries[entry_id]
                dropped += 1
            # else: stale pair (entry moved or already gone) — discard.
        return dropped

    def live_count(self, now: int) -> int:
        self.purge(now)
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def full(self, now: int) -> bool:
        return self.live_count(now) >= self.capacity

    def latest_end(self, now: int) -> int:
        """End of the last-to-leave live entry (``now`` when empty)."""
        self.purge(now)
        entries = self._entries
        if not entries:
            return now
        heap = self._max_ends
        while heap:
            neg_end, entry_id = heap[0]
            cur = entries.get(entry_id)
            if cur is not None and cur[1] == -neg_end:
                return -neg_end
            heapq.heappop(heap)
        # Unreachable in practice (every live entry has a heap pair),
        # but stay safe under exotic mutation orders.
        return max(end for (_, end) in entries.values())

    def admit(self, entry_id: int, start: int, end: int) -> bool:
        """Reserve a slot for ``[start, end)``; False when full."""
        if self.full(start):
            self.rejections += 1
            return False
        end = max(end, start)
        self._entries[entry_id] = (start, end)
        heapq.heappush(self._min_ends, (end, entry_id))
        heapq.heappush(self._max_ends, (-end, entry_id))
        self.admissions += 1
        return True

    def update_end(self, entry_id: int, end: int) -> None:
        """Move an entry's leave time.

        An update that arrives after its entry was already purged is a
        *no-op* (counted in ``late_updates``): the slot was reclaimed,
        and resurrecting or crashing on it would both be wrong.
        """
        cur = self._entries.get(entry_id)
        if cur is None:
            self.late_updates += 1
            return
        self._entries[entry_id] = (cur[0], end)
        heapq.heappush(self._min_ends, (end, entry_id))
        heapq.heappush(self._max_ends, (-end, entry_id))


class ReferenceCapacityTimeline:
    """The pre-optimization :class:`CapacityTimeline` semantics.

    ``purge``/``latest_end`` rescan every live entry — exactly the code
    the optimized sorted-ends structure replaced.  Kept as (a) the
    oracle for the capacity property tests and (b) the capacity
    implementation of the ``"reference"`` engine profile, so the
    differential harness exercises genuinely independent code paths.
    """

    __slots__ = (
        "name", "capacity", "_entries", "admissions", "rejections",
        "late_updates",
    )

    def __init__(self, capacity: int, name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._entries: Dict[int, Tuple[int, int]] = {}
        self.admissions = 0
        self.rejections = 0
        self.late_updates = 0

    def purge(self, now: int) -> int:
        """Drop entries whose interval has ended by ``now``."""
        dead = [k for k, (_, end) in self._entries.items() if end <= now]
        for k in dead:
            del self._entries[k]
        return len(dead)

    def live_count(self, now: int) -> int:
        self.purge(now)
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def full(self, now: int) -> bool:
        return self.live_count(now) >= self.capacity

    def latest_end(self, now: int) -> int:
        """End of the last-to-leave live entry (``now`` when empty)."""
        self.purge(now)
        if not self._entries:
            return now
        return max(end for (_, end) in self._entries.values())

    def admit(self, entry_id: int, start: int, end: int) -> bool:
        """Reserve a slot for ``[start, end)``; False when full."""
        if self.full(start):
            self.rejections += 1
            return False
        self._entries[entry_id] = (start, max(end, start))
        self.admissions += 1
        return True

    def update_end(self, entry_id: int, end: int) -> None:
        """Move an entry's leave time (late updates are counted no-ops)."""
        cur = self._entries.get(entry_id)
        if cur is None:
            self.late_updates += 1
            return
        self._entries[entry_id] = (cur[0], end)
