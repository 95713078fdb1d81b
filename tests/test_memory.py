"""Memory controller: row-buffer timing, queueing, FR-FCFS behaviour."""

import pytest

from repro.arch.memory import DramBankState, MemoryController


@pytest.fixture
def mc(cfg):
    return MemoryController(cfg, 0)


def addr_for(cfg, controller=0, bank=0, row=0, offset=0):
    """Build an address mapping to the requested (controller, bank, row)."""
    page = controller + 4 * bank + 16 * row
    a = page * cfg.memory.interleave_bytes + offset
    assert cfg.memory_controller(a) == controller
    assert cfg.dram_bank(a) == bank
    assert cfg.dram_row(a) == row
    return a


class TestBankState:
    def test_outcomes(self):
        b = DramBankState()
        assert b.outcome(5) == "miss"       # closed bank
        b.open_row = 5
        assert b.outcome(5) == "hit"
        assert b.outcome(6) == "conflict"


class TestTiming:
    def test_first_access_is_row_miss(self, cfg, mc):
        a = addr_for(cfg, row=3)
        done = mc.access(a, 100)
        assert done == 100 + cfg.memory.dram.t_row_miss
        assert mc.stats.row_misses == 1

    def test_second_access_same_row_is_hit(self, cfg, mc):
        a = addr_for(cfg, row=3)
        t1 = mc.access(a, 0)
        t2 = mc.access(a + 64, t1 + 10)
        assert t2 - (t1 + 10) == cfg.memory.dram.t_row_hit
        assert mc.stats.row_hits == 1

    def test_row_conflict_costs_most(self, cfg, mc):
        t1 = mc.access(addr_for(cfg, row=0), 0)
        t2 = mc.access(addr_for(cfg, row=1), t1 + 5)
        assert t2 - (t1 + 5) == cfg.memory.dram.t_row_conflict
        assert mc.stats.row_conflicts == 1

    def test_busy_bank_queues(self, cfg, mc):
        a = addr_for(cfg, row=0)
        t1 = mc.access(a, 0)
        # Arrives while the bank is still busy: starts no earlier than t1.
        t2 = mc.access(a + 64, 1)
        assert t2 >= t1 + cfg.memory.dram.t_row_hit

    def test_different_banks_parallel(self, cfg, mc):
        a = addr_for(cfg, bank=0)
        b = addr_for(cfg, bank=1)
        t1 = mc.access(a, 0)
        t2 = mc.access(b, 0)
        # Both are row misses starting immediately: identical service.
        assert t1 == t2 == cfg.memory.dram.t_row_miss


class TestQueueEstimate:
    def test_idle_bank_zero_delay(self, cfg, mc):
        assert mc.queue_delay_estimate(addr_for(cfg), 50) == 0

    def test_busy_bank_positive_delay(self, cfg, mc):
        a = addr_for(cfg)
        done = mc.access(a, 0)
        assert mc.queue_delay_estimate(a, 0) == done

    def test_estimate_does_not_mutate(self, cfg, mc):
        a = addr_for(cfg)
        mc.access(a, 0)
        before = mc.banks[0].ready_at
        mc.queue_delay_estimate(a, 0)
        assert mc.banks[0].ready_at == before


class TestStats:
    def test_row_hit_rate(self, cfg, mc):
        a = addr_for(cfg)
        t = 0
        for _ in range(4):
            t = mc.access(a, t)
        assert mc.stats.requests == 4
        assert mc.stats.row_hit_rate == pytest.approx(3 / 4)

    def test_service_time_table(self, cfg, mc):
        d = cfg.memory.dram
        assert mc.service_time("hit") == d.t_row_hit
        assert mc.service_time("miss") == d.t_row_miss
        assert mc.service_time("conflict") == d.t_row_conflict
