"""System simulator: the data-access path (no NDC involved)."""

import pytest

from repro.arch.simulator import SystemSimulator, simulate
from repro.isa import load, make_trace, store, work


@pytest.fixture
def sim(cfg):
    return SystemSimulator(cfg)


class TestBasicOps:
    def test_work_advances_clock(self, cfg):
        res = simulate(make_trace([[work(0, 37)]]), cfg)
        assert res.cycles == 37

    def test_l1_hit_latency(self, cfg):
        res = simulate(make_trace([[load(0, 0x1000), load(1, 0x1000)]]), cfg)
        # second access is an L1 hit: +2 cycles over the first
        assert res.stats.l1_hits == 1
        assert res.stats.l1_misses == 1

    def test_miss_costs_more_than_hit(self, sim):
        p1 = sim.access_path.access(0, 0x4000, 0, commit=True)
        p2 = sim.access_path.access(0, 0x4000, p1.completion, commit=True)
        first = p1.completion
        second = p2.completion - p1.completion
        assert first > second
        assert p2.l1_hit

    def test_l2_hit_cheaper_than_memory(self, sim, cfg):
        addr = 0x8000
        p_cold = sim.access_path.access(0, addr, 0, commit=True)         # memory fetch
        sim.l1[0].invalidate(addr)                            # drop L1 copy
        p_l2 = sim.access_path.access(0, addr, p_cold.completion, commit=True)
        assert not p_cold.l2_hit
        assert p_l2.l2_hit
        cold_cost = p_cold.completion
        l2_cost = p_l2.completion - p_cold.completion
        assert l2_cost < cold_cost

    def test_estimate_matches_commit_when_uncontended(self, sim):
        addr = 0xC000
        est = sim.access_path.access(0, addr, 0, commit=False)
        real = sim.access_path.access(0, addr, 0, commit=True)
        assert est.completion == real.completion

    def test_estimate_does_not_mutate(self, sim):
        sim.access_path.access(0, 0x5000, 0, commit=False)
        assert sim.stats.l1_misses == 0
        assert not sim.l1[0].probe(0x5000)

    def test_no_allocate_skips_l1_fill(self, sim):
        sim.access_path.access(0, 0x6000, 0, commit=True, allocate_l1=False)
        assert not sim.l1[0].probe(0x6000)


class TestStoresAndCoherence:
    def test_store_is_write_buffer_fast(self, cfg):
        res = simulate(make_trace([[store(0, 0x2000)]]), cfg)
        assert res.cycles == cfg.l1.access_latency

    def test_store_dirties_line_until_writeback(self, sim, cfg):
        sim.access_path.store(0, 0x2000, 0)
        l2_line = 0x2000 // cfg.l2.line_bytes
        owner, t_wb = sim.machine.dirty[l2_line]
        assert owner == 0
        assert t_wb >= cfg.writeback_lag_base

    def test_remote_read_of_dirty_line_snoops(self, sim):
        sim.access_path.store(0, 0x2000, 0)
        # Core 5 reads before the writeback lands: 3-hop snoop, counted
        # as an L2 (coherence) miss.
        plan = sim.access_path.access(5, 0x2000, 10, commit=True)
        assert not plan.l1_hit
        assert sim.stats.l2_misses >= 1

    def test_own_dirty_line_is_l1_hit(self, sim):
        sim.access_path.store(0, 0x2000, 0)
        plan = sim.access_path.access(0, 0x2000, 5, commit=True)
        assert plan.l1_hit

    def test_read_after_writeback_hits_home_l2(self, sim, cfg):
        sim.access_path.store(0, 0x2000, 0)
        _, t_wb = sim.machine.dirty[0x2000 // cfg.l2.line_bytes]
        plan = sim.access_path.access(5, 0x2000, t_wb + 100, commit=True)
        assert plan.l2_hit

    def test_writeback_lag_deterministic(self, sim):
        assert sim.machine.writeback_lag(123) == sim.machine.writeback_lag(123)
        lags = {sim.machine.writeback_lag(i) for i in range(50)}
        assert len(lags) > 10  # spread exists


class TestRunLoop:
    def test_cores_interleave(self, cfg):
        tr = make_trace([[work(0, 10)], [work(1, 20)], [work(2, 5)]])
        res = simulate(tr, cfg)
        assert res.stats.per_core_cycles == [10, 20, 5]
        assert res.cycles == 20

    def test_too_many_streams_rejected(self, cfg):
        tr = make_trace([[work(0, 1)]] * 26)
        with pytest.raises(ValueError):
            simulate(tr, cfg)

    def test_empty_trace(self, cfg):
        assert simulate(make_trace([]), cfg).cycles == 0

    def test_instruction_count(self, cfg):
        tr = make_trace([[load(0, 0), work(1, 1)], [store(2, 64)]])
        res = simulate(tr, cfg)
        assert res.stats.instructions == 3

    def test_determinism(self, cfg):
        tr = make_trace([
            [load(i, 0x1000 + 64 * i) for i in range(50)],
            [store(i, 0x9000 + 64 * i) for i in range(50)],
        ])
        a = simulate(tr, cfg).cycles
        b = simulate(tr, cfg).cycles
        assert a == b


class TestPcStats:
    def test_collected_when_enabled(self, cfg):
        tr = make_trace([[load(7, 0x1000), load(7, 0x1000)]])
        sim = SystemSimulator(cfg, collect_pc_stats=True)
        sim.run(tr)
        h1, m1, h2, m2 = sim.pc_stats[7]
        assert (h1, m1) == (1, 1)

    def test_disabled_by_default(self, cfg):
        tr = make_trace([[load(7, 0x1000)]])
        sim = SystemSimulator(cfg)
        sim.run(tr)
        assert sim.pc_stats == {}
