"""NDC hardware: in-order service tables, time-outs, offload tables."""

import pytest

from repro.arch.ndc_units import NdcUnit, OffloadTable, ServiceTable
from repro.config import NdcConfig, NdcLocation, OpClass


@pytest.fixture
def unit():
    return NdcUnit(NdcLocation.CACHE, ("l2", 3), NdcConfig())


class TestServiceTable:
    def test_admit_and_purge(self):
        t = ServiceTable(2)
        assert t.admit(1, arrive=0, leave=10)
        assert t.active_count(5) == 1
        assert t.active_count(10) == 0  # left at 10

    def test_capacity(self):
        t = ServiceTable(2)
        t.admit(1, 0, 100)
        t.admit(2, 0, 100)
        assert t.full(0)
        assert not t.admit(3, 0, 100)

    def test_capacity_frees_after_leave(self):
        t = ServiceTable(1)
        t.admit(1, 0, 10)
        assert t.admit(2, 10, 20)

    def test_hol_clearance_empty(self):
        t = ServiceTable(4)
        assert t.hol_clearance(7) == 7

    def test_hol_clearance_is_max_leave(self):
        t = ServiceTable(4)
        t.admit(1, 0, 50)
        t.admit(2, 0, 30)
        assert t.hol_clearance(0) == 50

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ServiceTable(0)


class TestNdcUnit:
    def test_successful_compute_timing(self, unit):
        res = unit.try_compute(t_arrive=100, wait=20, op_latency=1)
        assert res == (120, 121)
        assert unit.stats.completed == 1
        assert unit.stats.total_wait_cycles == 20

    def test_hol_blocks_later_package(self, unit):
        # First package waits long; the second, though ready earlier,
        # must wait behind it (in-order processing).
        unit.try_compute(t_arrive=0, wait=100)        # leaves at 101
        start, done = unit.try_compute(t_arrive=10, wait=0)
        assert start >= 101
        assert unit.stats.total_hol_cycles > 0

    def test_full_table_bounces(self):
        u = NdcUnit(NdcLocation.MEMCTRL, ("mc", 0),
                    NdcConfig(service_table_entries=1))
        u.try_compute(0, 500)
        assert u.try_compute(5, 0) is None
        assert u.stats.rejected_full == 1

    def test_park_until_timeout(self, unit):
        abort = unit.park_until_timeout(t_arrive=50, limit=30)
        assert abort == 80
        assert unit.stats.timed_out == 1

    def test_parked_entry_occupies_slot(self):
        u = NdcUnit(NdcLocation.CACHE, ("l2", 0),
                    NdcConfig(service_table_entries=1))
        u.park_until_timeout(0, 100)
        assert u.park_until_timeout(10, 100) is None  # still parked
        assert u.park_until_timeout(150, 100) is not None  # slot freed

    def test_op_restriction(self):
        u = NdcUnit(
            NdcLocation.MEMORY, ("mem", 0, 0),
            NdcConfig(allowed_ops=(OpClass.ADD, OpClass.SUB)),
        )
        assert u.can_execute(OpClass.ADD)
        assert not u.can_execute(OpClass.DIV)

    def test_effective_limit_with_hw_timeout(self):
        u = NdcUnit(NdcLocation.CACHE, ("l2", 0), NdcConfig(timeout_cycles=40))
        assert u.effective_limit(100) == 40
        assert u.effective_limit(10) == 10

    def test_effective_limit_disabled(self, unit):
        assert unit.effective_limit(123) == 123


class TestOffloadTable:
    def test_issue_and_capacity(self):
        t = OffloadTable(2)
        assert t.issue(1, now=0, retire_at=100)
        assert t.issue(2, now=0, retire_at=100)
        assert not t.issue(3, now=0, retire_at=100)

    def test_entries_retire_over_time(self):
        t = OffloadTable(1)
        t.issue(1, 0, 50)
        assert not t.issue(2, 10, 60)
        assert t.issue(3, 50, 90)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            OffloadTable(0)
