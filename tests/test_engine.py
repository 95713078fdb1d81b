"""The reserve/commit engine core: timelines, properties, regressions.

Three layers of coverage:

* unit tests on :class:`ResourceTimeline` / :class:`CapacityTimeline`
  (gap-filling, merging, accounting, the commit-ahead compatibility
  mode);
* hypothesis properties — equal-priority reservation order never
  changes the resulting schedule, and gap-filling never finishes
  later than commit-ahead on *any* request sequence;
* a system-level contention regression pinning the *direction* of the
  engine change: two cores hammering one L2 bank or one DRAM bank
  finish strictly earlier under reserve/commit than under the seed's
  commit-ahead approximation (which serialized temporally-earlier ops
  behind usage committed deep into the future).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.engine import (
    CapacityTimeline,
    COMMIT_AHEAD,
    ENGINE_MODES,
    RESERVE_COMMIT,
    ResourceTimeline,
)
from repro.arch.simulator import simulate
from repro.config import DEFAULT_CONFIG
from repro.isa import load, make_trace

from conftest import commit_ahead_simulator


class TestResourceTimeline:
    def test_empty_timeline_grants_immediately(self):
        tl = ResourceTimeline("r")
        assert tl.earliest_free(7, 5) == 7
        assert tl.reserve(7, 5) == 7
        assert tl.free_at == 12

    def test_zero_span_is_free(self):
        tl = ResourceTimeline("r")
        tl.reserve(0, 10)
        assert tl.earliest_free(3, 0) == 3
        assert tl.reserve(3, 0) == 3
        assert tl.busy_cycles == 10

    def test_gap_fill_slides_into_front_gap(self):
        tl = ResourceTimeline("r")
        tl.reserve(100, 50)             # future slot: [100, 150)
        # An earlier op fits entirely in front of it.
        assert tl.earliest_free(0, 40) == 0
        assert tl.reserve(0, 40) == 0
        # A too-large request walks past the gap.
        assert tl.earliest_free(40, 80) == 150

    def test_commit_ahead_never_reuses_gaps(self):
        tl = ResourceTimeline("r", mode=COMMIT_AHEAD)
        tl.reserve(100, 50)
        assert tl.earliest_free(0, 10) == 150
        assert tl.reserve(0, 10) == 150
        assert tl.stall_cycles == 150

    def test_adjacent_intervals_merge(self):
        tl = ResourceTimeline("r")
        tl.reserve(0, 10)
        tl.reserve(20, 10)
        assert tl.interval_count == 2
        tl.reserve(10, 10)              # bridges [0,10) and [20,30)
        assert tl.interval_count == 1
        assert tl.intervals() == [(0, 30)]

    def test_earliest_free_is_pure(self):
        tl = ResourceTimeline("r")
        tl.reserve(0, 10)
        before = tl.intervals()
        tl.earliest_free(0, 100)
        assert tl.intervals() == before
        assert tl.reservations == 1

    def test_utilization_accounting(self):
        tl = ResourceTimeline("r")
        tl.reserve(0, 10)
        tl.reserve(5, 10)               # stalls 5, runs [10, 20)
        assert tl.utilization() == (2, 20, 5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ResourceTimeline("r", mode="optimistic")


class TestCapacityTimeline:
    def test_admits_up_to_capacity(self):
        ct = CapacityTimeline(2, "tbl")
        assert ct.admit(1, 0, 100)
        assert ct.admit(2, 0, 100)
        assert not ct.admit(3, 0, 100)
        assert ct.rejections == 1

    def test_purge_frees_slots(self):
        ct = CapacityTimeline(1, "tbl")
        assert ct.admit(1, 0, 50)
        assert ct.full(10)
        assert not ct.full(50)          # half-open: ends *at* 50
        assert ct.admit(2, 50, 80)
        assert ct.occupancy == 1

    def test_latest_end_and_update(self):
        ct = CapacityTimeline(2, "tbl")
        ct.admit(1, 0, 30)
        ct.admit(2, 0, 60)
        assert ct.latest_end(0) == 60
        ct.update_end(1, 90)
        assert ct.latest_end(0) == 90
        assert ct.latest_end(1000) == 1000

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CapacityTimeline(0)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

spans = st.lists(st.integers(min_value=1, max_value=60),
                 min_size=1, max_size=12)
requests = st.lists(
    st.tuples(st.integers(min_value=0, max_value=500),
              st.integers(min_value=1, max_value=60)),
    min_size=1, max_size=20,
)


class TestEngineProperties:
    @given(spans=spans, now=st.integers(min_value=0, max_value=1000),
           seed=st.randoms())
    @settings(max_examples=120, deadline=None)
    def test_equal_priority_order_never_changes_schedule(
        self, spans, now, seed
    ):
        """Same-cycle reservations: any interleaving, same outcome.

        When several ops contend for a resource at the *same* cycle
        (equal priority), the engine must not make the resulting
        schedule depend on the order the simulator happened to visit
        them in: the end of the schedule, the total busy cycles, and
        the reserved-interval set are permutation-invariant.  (The
        *attribution* of stall cycles to individual ops legitimately
        follows visit order — whoever is visited later waits longer —
        so per-op stalls are excluded from the invariant.)
        """
        perm = list(spans)
        seed.shuffle(perm)
        for mode in ENGINE_MODES:
            outcomes = []
            for order in (spans, perm):
                tl = ResourceTimeline("r", mode=mode)
                for span in order:
                    tl.reserve(now, span)
                outcomes.append(
                    (tl.free_at, tl.busy_cycles, tuple(tl.intervals()))
                )
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == now + sum(spans)

    @given(reqs=requests)
    @settings(max_examples=120, deadline=None)
    def test_gap_fill_never_finishes_later_than_commit_ahead(self, reqs):
        """The whole point of the engine change, as an invariant."""
        rc = ResourceTimeline("r", mode=RESERVE_COMMIT)
        ca = ResourceTimeline("r", mode=COMMIT_AHEAD)
        for now, span in reqs:
            rc.reserve(now, span)
            ca.reserve(now, span)
        assert rc.free_at <= ca.free_at
        assert rc.busy_cycles == ca.busy_cycles

    def test_exhaustive_small_permutations(self):
        """All 24 orders of 4 same-cycle reservations agree exactly."""
        spans = (3, 11, 7, 20)
        seen = set()
        for order in itertools.permutations(spans):
            tl = ResourceTimeline("r")
            for span in order:
                tl.reserve(5, span)
            seen.add((tl.free_at, tl.busy_cycles, tuple(tl.intervals())))
        assert seen == {(46, 41, ((5, 46),))}


# ----------------------------------------------------------------------
# system-level contention regression (direction, not exact cycles)
# ----------------------------------------------------------------------

def _hammer(addr_fn, per_core=24, cores=2):
    streams = [
        [load(i, a) for i, a in enumerate(addr_fn(c, per_core))]
        for c in range(cores)
    ]
    return make_trace(streams)


class TestContentionRegression:
    """Two cores on one hot resource: reserve/commit beats commit-ahead.

    The seed's scalar ``free_at`` clocks forced every access from the
    second core behind usage the first core had committed far into the
    future.  Gap-filling lets temporally-earlier requests interleave,
    so total cycles must come out *strictly* lower — the test pins the
    direction of the change, not an exact cycle count.
    """

    def test_one_dram_bank(self):
        cfg = DEFAULT_CONFIG
        stride = (cfg.memory.interleave_bytes
                  * cfg.memory.num_controllers
                  * cfg.memory.dram.banks_per_controller)

        def addrs(core, n):   # controller 0, bank 0, distinct rows
            return [(core * 1000 + i) * stride for i in range(n)]

        for a in addrs(0, 4) + addrs(1, 4):
            assert cfg.memory_controller(a) == 0
            assert cfg.dram_bank(a) == 0
        trace = _hammer(addrs)
        rc = simulate(trace, cfg)
        ca = commit_ahead_simulator(cfg).run(trace)
        assert rc.cycles < ca.cycles

    def test_one_l2_bank(self):
        cfg = DEFAULT_CONFIG
        stride = cfg.l2.line_bytes * cfg.noc.num_nodes

        def addrs(core, n):   # every line homed at node 0
            return [(core * 1000 + i) * stride for i in range(n)]

        for a in addrs(0, 4) + addrs(1, 4):
            assert cfg.l2_home_node(a) == 0
        trace = _hammer(addrs)
        rc = simulate(trace, cfg)
        ca = commit_ahead_simulator(cfg).run(trace)
        assert rc.cycles < ca.cycles

    def test_modes_agree_when_uncontended(self):
        """A single core never exercises gap-filling: modes must agree."""
        cfg = DEFAULT_CONFIG
        trace = make_trace(
            [[load(i, i * 0x1340) for i in range(16)]]
        )
        rc = simulate(trace, cfg)
        ca = commit_ahead_simulator(cfg).run(trace)
        assert rc.cycles == ca.cycles
