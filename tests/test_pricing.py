"""On-demand pricing in the default engine.

The default engine's compute step prices only what the deciding scheme
reads (:class:`~repro.arch.candidates.ComputePricing`): a local hit
prices nothing, station groups are built in trial order as a scheme's
loop reaches them, the conventional estimate is computed on first read,
and ``opportunities_seen`` is answered from structure where it can be.
The reference engine prices everything eagerly, and the differential
suite holds the two engines to identical results.  This module checks
the on-demand answers against eager pricing at every compute, and pins
the saving itself, so a change that quietly goes back to eager pricing
fails here and not only in a benchmark.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro import schemes as S
from repro.arch.access import AccessPath, FusedAccessPath
from repro.arch.candidates import _UNPRICED, CandidateBuilder
from repro.arch.machine import FusedMachineState
from repro.arch.simulator import SystemSimulator
from repro.arch.stats import NEVER
from repro.config import DEFAULT_CONFIG, NdcLocation
from repro.isa import compute, load, make_trace
from repro.workloads import benchmark_trace

#: every Fig. 4 bar, the baseline, and the two beyond-paper schemes
LINEUP = ("original",) + S.DEFAULT_LINEUP + ("coda", "nmpo")


@contextmanager
def memo_off(machine):
    """Price without the compute's pure-travel memo, so eager pricing
    recomputes every query instead of reading on-demand answers."""
    memo, machine._pure_memo = machine._pure_memo, None
    try:
        yield
    finally:
        machine._pure_memo = memo


def eager_pricing(sim, core, op, now):
    """(candidates, conv_completion) priced by the reference classes."""
    builder = CandidateBuilder(sim.machine)
    access = AccessPath(sim.machine)
    with memo_off(sim.machine):
        cands = builder.build(core, op, now)
        est_x = access.access(core, op.addr, now, commit=False)
        est_y = access.access(core, op.addr2, now, commit=False)
    return cands, max(est_x.completion, est_y.completion) + 1


class EagerCheckSimulator(SystemSimulator):
    """A default-engine simulator that also prices every compute eagerly.

    Before each decision it runs the reference ``CandidateBuilder`` and
    two reference ``AccessPath`` estimates on the same machine state, and
    asserts that the on-demand answers match them.
    """

    def __init__(self, cfg, scheme):
        super().__init__(cfg, scheme)
        self.checked = 0
        decide = self.scheme.decide

        def checked_decide(ctx):
            self._check(ctx)
            return decide(ctx)

        self.scheme.decide = checked_decide

    def _check(self, ctx):
        pricing = ctx.candidates
        ready = pricing.any_ready()
        cands, conv = eager_pricing(self, ctx.core, ctx.op, ctx.now)
        assert pricing.force() == cands
        assert ctx.conv_completion == conv
        assert ready == any(c.ready < NEVER for c in cands)
        self.checked += 1


@pytest.mark.parametrize("bench", ["fft", "swim", "hashjoin", "mix.fft.hash"])
def test_on_demand_equals_eager_at_every_compute(bench):
    cfg = DEFAULT_CONFIG
    for entry in S.build_lineup(LINEUP):
        trace = benchmark_trace(bench, entry.variant, 0.1, cfg)
        runs = []
        for sim_cls in (EagerCheckSimulator, SystemSimulator):
            scheme = entry.build()
            scheme.prepare(cfg, trace)
            sim = sim_cls(cfg, scheme)
            runs.append((sim, sim.run(trace)))
        (checked, got), (_, plain) = runs
        assert checked.checked > 0, entry.label
        assert got.stats == plain.stats, f"{bench}/{entry.label}"


# ======================================================================
# the saving stays in place
# ======================================================================
def _count_calls(monkeypatch, cls, name, keep=None):
    calls = []
    fn = getattr(cls, name)

    def counted(self, *args, **kwargs):
        if keep is None or keep(*args, **kwargs):
            calls.append(args)
        return fn(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _pure_travel(monkeypatch):
    return _count_calls(
        monkeypatch, FusedMachineState, "travel_time",
        keep=lambda src, dst, start, payload, commit: not commit,
    )


class TestPricesOnlyWhatIsRead:
    @pytest.mark.parametrize("label", ["original", "wait-25%", "oracle"])
    def test_blind_schemes_run_no_estimate(self, monkeypatch, label):
        """The baseline and the blind waiting schemes never read the
        conventional estimate; the oracle does."""
        calls = _count_calls(monkeypatch, FusedAccessPath, "estimate")
        entry = S.build_scheme(label)
        trace = benchmark_trace("fft", entry.variant, 0.1)
        SystemSimulator(DEFAULT_CONFIG, entry.build()).run(trace)
        if label == "oracle":
            assert calls
        else:
            assert calls == []

    def test_local_hit_prices_nothing(self, monkeypatch, cfg):
        a = 1 << 20
        b = a + 1024
        pure = _pure_travel(monkeypatch)
        hot = make_trace([[load(0, a), compute(1, a, b)]])
        res = SystemSimulator(cfg, S.OracleScheme()).run(hot)
        assert res.stats.ndc.skipped_local_hit == 1
        assert pure == []
        cold = make_trace([[compute(1, a, b)]])
        SystemSimulator(cfg, S.OracleScheme()).run(cold)
        assert pure  # the same compute, priced once it misses the L1

    def test_profiler_receives_every_candidate(self, cfg):
        """With ``profile_windows`` every compute, local hits included, is
        priced in full before the profiler records it."""
        trace = benchmark_trace("fft", "original", 0.1, cfg)
        sim = SystemSimulator(cfg, S.OracleScheme(), profile_windows=True)
        core_of = {}
        exec_compute = sim._exec_compute

        def tracking(core, op, now):
            core_of["now"] = core
            return exec_compute(core, op, now)

        record = sim.profiler.record
        recorded = []

        def checking(op, conv_cost, now, candidates):
            cands, conv = eager_pricing(sim, core_of["now"], op, now)
            assert list(candidates) == cands
            assert conv_cost == conv - now
            recorded.append(op)
            return record(op, conv_cost, now, candidates)

        sim._exec_compute = tracking
        sim.profiler.record = checking
        res = sim.run(trace)
        assert res.stats.ndc.skipped_local_hit > 0
        assert len(recorded) == res.stats.computes


class TestComputePricing:
    def test_finished_simulator_needs_no_cycle_collector(self, cfg):
        """The builder owns its pricing object; a strong reference back
        would make a cycle that keeps every finished machine (caches,
        timelines, address facts) alive until a full collection."""
        a = 1 << 20
        gc.disable()
        try:
            sim = SystemSimulator(cfg, S.OracleScheme())
            sim.run(make_trace([[compute(1, a, a + 1024)]]))
            machine = weakref.ref(sim.machine)
            del sim
            assert machine() is None
        finally:
            gc.enable()

    def _reset(self, cfg, op):
        # the pricing object refers to its builder weakly: keep the
        # simulator alive for the test
        self.sim = SystemSimulator(cfg)
        pricing = self.sim.candidate_builder.pricing
        pricing.reset(5, op, 0)
        return pricing

    def test_iteration_builds_groups_in_trial_order(self, cfg):
        a = 1 << 20
        pricing = self._reset(cfg, compute(1, a, a + 1024))
        seen = []
        for cand in pricing:
            seen.append(cand)
            if cand.location == NdcLocation.CACHE:
                break
        assert pricing._mem is None  # the memory pair was never reached
        assert seen == pricing.force()[:len(seen)]
        assert pricing.force()[-2:] == list(pricing.memory())

    def test_len_and_indexing_force_every_group(self, cfg):
        a = 1 << 20
        pricing = self._reset(cfg, compute(1, a, a + 1024))
        n = len(pricing)
        assert n == len(pricing.force()) == 4 - (pricing.network() is None)
        assert pricing[-1].location == NdcLocation.MEMORY
        assert pricing[-3:] == pricing.force()[-3:]
        assert pricing.index(pricing.cache()) == n - 3
        assert pricing.cache() in pricing

    @pytest.mark.parametrize("layout", ["same_home", "other_home", "memory",
                                        "other_mc", "mixed"])
    def test_structural_readiness_matches_candidates(self, cfg, layout):
        a = 1 << 20
        b = {
            "same_home": a + 64, "other_home": a + 1024, "memory": a + 1024,
            "other_mc": a + 4096, "mixed": a + 1024,
        }[layout]
        sim = SystemSimulator(cfg)
        if layout in ("same_home", "other_home", "mixed"):
            sim.l2[cfg.l2_home_node(a)].fill(a)
        if layout in ("same_home", "other_home"):
            sim.l2[cfg.l2_home_node(b)].fill(b)
        pricing = sim.candidate_builder.pricing
        for core in range(cfg.noc.width * cfg.noc.height):
            pricing.reset(core, compute(1, a, b), 0)
            ready = pricing.any_ready()
            if layout in ("same_home", "memory"):
                # ready from structure alone: the network is not priced
                assert ready and pricing._net is _UNPRICED
            assert ready == any(c.ready < NEVER for c in pricing.force())
