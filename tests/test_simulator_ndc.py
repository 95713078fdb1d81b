"""System simulator: NDC candidate enumeration and offload execution."""


from repro import schemes as S
from repro.arch.simulator import SystemSimulator, simulate
from repro.arch.stats import NEVER
from repro.config import NdcComponentMask, NdcLocation, OpClass
from repro.isa import compute, load, make_trace, pre_compute

from conftest import commit_ahead_simulator


def same_bank_pair(cfg):
    """Two addresses in the same DRAM bank (and row) but different L2
    homes and L1 lines."""
    a = 1 << 20
    b = a + 1024   # same 4 KB page -> same MC/bank/row; L2 home differs
    assert cfg.memory_controller(a) == cfg.memory_controller(b)
    assert cfg.dram_bank(a) == cfg.dram_bank(b)
    assert cfg.l2_home_node(a) != cfg.l2_home_node(b)
    return a, b


class TestCandidates:
    def test_trial_order(self, cfg):
        sim = SystemSimulator(cfg)
        op = compute(1, *same_bank_pair(cfg))
        cands = sim.candidate_builder.build(5, op, 0)
        locs = [c.location for c in cands]
        assert locs.index(NdcLocation.CACHE) < locs.index(NdcLocation.MEMCTRL)
        assert locs.index(NdcLocation.MEMCTRL) < locs.index(NdcLocation.MEMORY)

    def test_memory_candidates_for_uncached_pair(self, cfg):
        sim = SystemSimulator(cfg)
        op = compute(1, *same_bank_pair(cfg))
        by_loc = {c.location: c for c in sim.candidate_builder.build(5, op, 0)}
        mc = by_loc[NdcLocation.MEMCTRL]
        mem = by_loc[NdcLocation.MEMORY]
        assert mc.ready < NEVER and mem.ready < NEVER
        # In-bank compute avoids the per-operand bus crossing.
        assert mem.completion() <= mc.completion()

    def test_cache_candidate_requires_residency(self, cfg):
        sim = SystemSimulator(cfg)
        a, b = same_bank_pair(cfg)
        op = compute(1, a, b)
        by_loc = {c.location: c for c in sim.candidate_builder.build(5, op, 0)}
        assert by_loc[NdcLocation.CACHE].avail_x >= NEVER

    def test_cache_candidate_when_co_resident(self, cfg):
        sim = SystemSimulator(cfg)
        a = 1 << 20
        b = a + 64  # same 256-byte L2 line: same home bank
        sim.l2[cfg.l2_home_node(a)].fill(a)
        sim.l2[cfg.l2_home_node(b)].fill(b)
        op = compute(1, a, b)
        by_loc = {c.location: c for c in sim.candidate_builder.build(5, op, 0)}
        cache = by_loc[NdcLocation.CACHE]
        assert cache.ready < NEVER
        assert cache.node == cfg.l2_home_node(a)

    def test_different_mc_no_memory_station(self, cfg):
        sim = SystemSimulator(cfg)
        a = 1 << 20
        b = a + 4096  # next page: different controller
        assert cfg.memory_controller(a) != cfg.memory_controller(b)
        cands = sim.candidate_builder.build(5, compute(1, a, b), 0)
        by_loc = {c.location: c for c in cands}
        assert by_loc[NdcLocation.MEMCTRL].avail_y >= NEVER
        assert by_loc[NdcLocation.MEMORY].avail_y >= NEVER


class TestLocalProbeRule:
    def test_l1_hot_operand_forces_conventional(self, cfg):
        a, b = same_bank_pair(cfg)
        tr = make_trace([[load(0, a), compute(1, a, b)]])
        res = simulate(tr, cfg, S.WaitForever())
        assert res.stats.ndc.skipped_local_hit == 1
        assert res.stats.ndc.total_performed == 0

    def test_both_cold_operands_reach_scheme(self, cfg):
        a, b = same_bank_pair(cfg)
        tr = make_trace([[compute(1, a, b)]])
        res = simulate(tr, cfg, S.WaitForever())
        assert res.stats.ndc.skipped_local_hit == 0


class TestOffloadExecution:
    def test_oracle_offloads_cold_same_bank_pair(self, cfg):
        a, b = same_bank_pair(cfg)
        tr = make_trace([[compute(1, a, b)]])
        res = simulate(tr, cfg, S.OracleScheme())
        assert res.stats.ndc.total_performed == 1

    def test_ndc_skips_l1_fill(self, cfg):
        a, b = same_bank_pair(cfg)
        tr = make_trace([[compute(1, a, b), compute(2, a, b)]])
        sim = SystemSimulator(cfg, S.OracleScheme())
        sim.run(tr)
        # After the first offload, the lines are NOT in L1 (unlike a
        # conventional execution).
        assert sim.stats.ndc.total_performed >= 1
        assert not sim.l1[0].probe(a)

    def test_conventional_fills_l1(self, cfg):
        a, b = same_bank_pair(cfg)
        tr = make_trace([[compute(1, a, b)]])
        sim = SystemSimulator(cfg)  # NoNdc
        sim.run(tr)
        assert sim.l1[0].probe(a) and sim.l1[0].probe(b)

    def test_op_restriction_falls_back(self, cfg):
        restricted = cfg.with_ndc(allowed_ops=(OpClass.ADD,))
        a, b = same_bank_pair(restricted)
        tr = make_trace([[compute(1, a, b, OpClass.DIV)]])
        res = simulate(tr, restricted, S.WaitForever())
        assert res.stats.ndc.total_performed == 0

    def test_mask_restricts_precompute(self, cfg):
        a, b = same_bank_pair(cfg)
        op = pre_compute(1, a, b, mask=NdcComponentMask.CACHE)
        tr = make_trace([[op]])
        res = simulate(tr, cfg, S.CompilerDirected())
        # Lines are memory-resident; the CACHE-only package finds no
        # station and runs conventionally.
        assert res.stats.ndc.total_performed == 0
        assert res.stats.ndc.skipped_no_station == 1

    def test_memory_mask_precompute_succeeds(self, cfg):
        a, b = same_bank_pair(cfg)
        op = pre_compute(
            1, a, b, mask=NdcComponentMask.MEMORY, timeout=140
        )
        tr = make_trace([[op]])
        res = simulate(tr, cfg, S.CompilerDirected())
        assert res.stats.ndc.performed[NdcLocation.MEMORY] == 1

    def test_dest_store_lands_in_home_l2(self, cfg):
        a, b = same_bank_pair(cfg)
        dest = (1 << 21) + 512
        tr = make_trace([[compute(1, a, b, dest=dest)]])
        sim = SystemSimulator(cfg, S.OracleScheme())
        sim.run(tr)
        assert sim.l2[cfg.l2_home_node(dest)].probe(dest)

    def test_blind_park_times_out(self, cfg):
        # x memory-resident, y on another controller: the blind package
        # parks at x's MC and the partner never shows.
        a = 1 << 20
        b = a + 4096
        tr = make_trace([[compute(1, a, b)]])
        res = simulate(tr, cfg, S.WaitForever())
        assert res.stats.ndc.aborted_timeout == 1
        assert res.stats.ndc.total_performed == 0

    def test_timeout_costs_more_than_baseline(self, cfg):
        a = 1 << 20
        b = a + 4096
        tr = make_trace([[compute(1, a, b)]])
        base = simulate(tr, cfg).cycles
        parked = simulate(tr, cfg, S.WaitForever()).cycles
        assert parked > base

    def test_residency_check_bounces_compiler_package(self, cfg):
        # y is L2-resident: a memory-side package provably cannot get
        # it; the compiled package bounces quickly instead of parking.
        a, b = same_bank_pair(cfg)
        op = pre_compute(1, a, b, mask=NdcComponentMask.MEMORY, timeout=140)
        tr = make_trace([[op]])
        sim = SystemSimulator(cfg, S.CompilerDirected())
        sim.l2[cfg.l2_home_node(b)].fill(b)
        res = sim.run(tr)
        assert res.stats.ndc.total_performed == 0


class TestServiceTablePressure:
    def _pressure_trace(self, cfg):
        a = 1 << 20
        streams = []
        for core in range(12):
            x = a + core * 4 * 4096         # same MC, banks spread
            y = a + 4096 + core * 4 * 4096  # different controller
            streams.append([compute(core, x, y)])
        return make_trace(streams)

    def test_concurrent_parks_pressure_one_unit(self, cfg):
        """All cores park at the same MC unit for never-arriving partners.

        Under the reserve/commit engine the packages genuinely arrive
        concurrently, so a 2-entry service table admits only a couple of
        parks (which time out) and structurally bounces the rest — every
        offload fails, none perform, and the admitted parks are
        accounted as wait cycles at that unit.
        """
        tight = cfg.with_ndc(service_table_entries=2)
        tr = self._pressure_trace(tight)
        sim = SystemSimulator(tight, S.WaitForever())
        res = sim.run(tr)
        failed = res.stats.ndc.aborted_timeout + res.stats.ndc.aborted_table_full
        assert failed == 12
        assert res.stats.ndc.aborted_table_full > 0  # capacity really binds
        assert res.stats.ndc.total_performed == 0
        mc_units = [
            u for (loc, key), u in sim.machine.ndc_units.items()
            if loc == NdcLocation.MEMCTRL
        ]
        assert sum(u.stats.timed_out for u in mc_units) >= 1
        assert sum(u.stats.total_wait_cycles for u in mc_units) > 0

    def test_commit_ahead_mode_staggers_parks(self, cfg):
        """The seed's commit-ahead approximation staggered the parks in
        time (each op committed its wait into the future before the next
        core ran), so every package found a drained table and timed out
        individually.  The test-only commit-ahead timelines preserve
        that behaviour for regression comparisons."""
        tight = cfg.with_ndc(service_table_entries=2)
        tr = self._pressure_trace(tight)
        sim = commit_ahead_simulator(tight, S.WaitForever())
        res = sim.run(tr)
        assert res.stats.ndc.aborted_timeout == 12
        assert res.stats.ndc.total_performed == 0


class TestProfiling:
    def test_arrival_records_per_location(self, cfg):
        a, b = same_bank_pair(cfg)
        tr = make_trace([[load(0, a), load(1, b), compute(2, a, b)]])
        sim = SystemSimulator(cfg, profile_windows=True)
        res = sim.run(tr)
        locs = {r.location for r in res.stats.arrival_records}
        assert locs == set(NdcLocation)

    def test_memory_window_small_for_adjacent_loads(self, cfg):
        a, b = same_bank_pair(cfg)
        tr = make_trace([[load(0, a), load(1, b), compute(2, a, b)]])
        sim = SystemSimulator(cfg, profile_windows=True)
        res = sim.run(tr)
        mem = [r for r in res.stats.arrival_records
               if r.location == NdcLocation.MEMORY]
        assert mem[0].window < 200

    def test_window_never_for_unrelated_pair(self, cfg):
        a = 1 << 20
        b = a + 4096
        tr = make_trace([[load(0, a), load(1, b), compute(2, a, b)]])
        sim = SystemSimulator(cfg, profile_windows=True)
        res = sim.run(tr)
        mem = [r for r in res.stats.arrival_records
               if r.location == NdcLocation.MEMORY]
        assert mem[0].window >= NEVER
        assert not mem[0].met
