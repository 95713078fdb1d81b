"""Differential-equivalence harness: the default engine vs reference.

The hot-path optimizations of the ``optimized`` engine (memoized route
tables and address facts, heap-backed capacity timelines, the fused
NoC travel loop, shared pure estimates, the run-extending replay loop
and its interval trimming) are only admissible because they can never
change a result.  This suite is that guarantee:

* the two profiles run different code for every hot entry point, so
  the comparisons below compare two programs;
* the full Fig. 4 scheme lineup produces **cycle-exact identical**
  :class:`~repro.arch.simulator.SimulationResult`s under ``optimized``
  as under ``reference`` — on an affine benchmark and on the
  sparse/mixed families — and leaves every link with the same
  ``free_at``;
* the golden headline geomeans are byte-identical under the reference
  profile (the regular golden test pins the optimized default);
* hypothesis properties pin the memoized tables to their closed forms
  (``RouteTable`` == ``xy_route``, ``addr_fact`` == the config's
  address maps) and the fused ``travel_time`` to ``Network.traverse``;
* with an :class:`~repro.arch.events.EventBus` attached, both profiles
  publish the **identical event stream** — the lazy fast path cannot
  silently drop events;
* engine profiles are perf knobs only: they do not exist in
  :class:`~repro.runtime.keys.JobKey`, do not alter any cache digest,
  and the cache schema remains v3; a retired profile name is rejected
  at every entry point.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import schemes as S
from repro.arch.engine import (
    ENGINE_PROFILES,
    OPTIMIZED,
    REFERENCE,
    CapacityTimeline,
    ReferenceCapacityTimeline,
)
from repro.arch.events import EventBus
from repro.arch.noc import Network
from repro.arch.routing import RouteTable, route_table_for, xy_route
from repro.arch.simulator import SystemSimulator
from repro.arch.topology import mesh_for
from repro.config import DEFAULT_CONFIG, NdcLocation
from repro.workloads import benchmark_trace

SCALE = 0.1
#: every profile the differential suite holds to the reference
FAST_PROFILES = [p for p in ENGINE_PROFILES if p != REFERENCE]


def _run_lineup(benchmark: str, profile: str, bus=None):
    """Every Fig. 4 scheme on ``benchmark`` under one engine profile."""
    cfg = DEFAULT_CONFIG
    results = {}
    for entry in S.build_lineup():
        trace = benchmark_trace(benchmark, entry.variant, SCALE, cfg)
        sim = SystemSimulator(
            cfg, entry.build(), engine_profile=profile, event_bus=bus
        )
        results[entry.label] = sim.run(trace)
    return results


# ======================================================================
# cycle-exact result equality
# ======================================================================
class TestLineupEquivalence:
    @pytest.mark.parametrize("profile", FAST_PROFILES)
    def test_fft_lineup_identical(self, profile):
        got = _run_lineup("fft", profile)
        ref = _run_lineup("fft", REFERENCE)
        assert got.keys() == ref.keys()
        for label in got:
            assert got[label] == ref[label], (
                f"{profile} divergence on fft/{label}"
            )

    @pytest.mark.parametrize("bench_name", ["spmv.csr", "mix.fft.hash"])
    def test_families_lineup_identical(self, bench_name):
        """The sparse/mixed families stress the paths the affine lineup
        cannot (opaque references, per-core heterogeneity): the default
        engine must stay cycle-exact on them too."""
        got = _run_lineup(bench_name, OPTIMIZED)
        ref = _run_lineup(bench_name, REFERENCE)
        for label in got:
            assert got[label] == ref[label], (
                f"divergence on {bench_name}/{label}"
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("bench_name", ["swim", "md"])
    @pytest.mark.parametrize("profile", FAST_PROFILES)
    def test_full_lineup_identical(self, bench_name, profile):
        got = _run_lineup(bench_name, profile)
        ref = _run_lineup(bench_name, REFERENCE)
        for label in got:
            assert got[label] == ref[label], (
                f"{profile} divergence on {bench_name}/{label}"
            )

    def test_profile_with_instrumentation_identical(self):
        """Collection knobs (pc stats, windows) divert nothing either."""
        cfg = DEFAULT_CONFIG
        trace = benchmark_trace("fft", "alg1", 0.05, cfg)
        results = []
        for profile in ENGINE_PROFILES:
            sim = SystemSimulator(
                cfg,
                S.CompilerDirected(),
                profile_windows=True,
                collect_window_series=True,
                collect_pc_stats=True,
                engine_profile=profile,
            )
            results.append(sim.run(trace))
        for profile, res in zip(ENGINE_PROFILES[1:], results[1:]):
            assert res == results[0], f"{profile} instrumentation drift"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="engine profile"):
            SystemSimulator(DEFAULT_CONFIG, engine_profile="fast")

    def test_link_free_at_matches_reference(self):
        """The replay loop trims ended link intervals; a link whose
        every interval has ended must still report its busy-until clock
        (hashjoin/oracle leaves about half its links in that state)."""
        oracle = next(e for e in S.build_lineup() if e.label == "oracle")
        trace = benchmark_trace("hashjoin", oracle.variant, 0.2)
        free_at = {}
        for profile in ENGINE_PROFILES:
            sim = SystemSimulator(
                DEFAULT_CONFIG, oracle.build(), engine_profile=profile
            )
            sim.run(trace)
            free_at[profile] = [tl.free_at for tl in sim.network.timelines()]
        assert free_at[OPTIMIZED] == free_at[REFERENCE]


# ======================================================================
# two programs, one profile set
# ======================================================================
def test_profiles_run_different_code():
    """Every hot entry point, and every structure a profile used to
    pick by name, differs between the profiles, so the equivalence
    tests compare two programs."""
    sims = {
        p: SystemSimulator(DEFAULT_CONFIG, engine_profile=p)
        for p in (OPTIMIZED, REFERENCE)
    }

    def entry_points(sim):
        return {
            "run": sim.run,
            "_exec_compute": sim._exec_compute,
            "access": sim.access_path.access,
            "build": sim.candidate_builder.build,
            "travel_time": sim.machine.travel_time,
            "route": sim.machine.route,
            "travel": sim.machine.travel,
        }

    opt, ref = entry_points(sims[OPTIMIZED]), entry_points(sims[REFERENCE])
    for name in opt:
        assert opt[name].__func__ is not ref[name].__func__, name
    for profile, timeline in (
        (OPTIMIZED, CapacityTimeline), (REFERENCE, ReferenceCapacityTimeline)
    ):
        m = sims[profile].machine
        service = m.unit(NdcLocation.CACHE, ("l2", 0)).table
        assert type(m.offload_tables[0]._slots) is timeline, profile
        assert type(service._slots) is timeline, profile


def test_retired_vectorized_profile_rejected(capsys):
    """``"vectorized"`` is an unknown profile like any other: the runtime
    options, a sweep spec and the CLI flag each reject it and name the
    valid set."""
    from repro.campaign.spec import SweepSpec
    from repro.cli import build_parser
    from repro.runtime import RuntimeOptions

    valid = "'optimized', 'reference'"
    with pytest.raises(ValueError, match=valid):
        RuntimeOptions(engine_profile="vectorized")
    with pytest.raises(ValueError, match=valid):
        SweepSpec.from_dict({"benchmarks": ["fft"],
                             "engine_profiles": ["vectorized"]})
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["bench", "--engine-profile", "vectorized"]
        )
    assert valid in capsys.readouterr().err


# ======================================================================
# golden headline under the reference profile
# ======================================================================
def test_golden_headline_reference_profile():
    """The committed golden JSON is byte-identical when recomputed with
    the reference engine (the golden test itself pins the optimized
    default, so together they pin profile equality at artifact level)."""
    from pathlib import Path

    from repro.analysis.experiments import ExperimentRunner
    from repro.analysis.metrics import geomean_improvement
    from repro.runtime import RuntimeOptions

    # Mirrors tests/test_golden_headline.py (kept in sync by the byte
    # comparison itself: any drift in either copy fails here).
    GOLDEN_PATH = Path(__file__).parent / "golden" / "headline.json"
    BENCHMARKS = ["fft", "swim", "md"]
    HEADLINE_SCHEMES = {
        "wait-forever": (S.WaitForever, "original"),
        "oracle": (S.OracleScheme, "original"),
        "algorithm-1": (S.CompilerDirected, "alg1"),
        "algorithm-2": (S.CompilerDirected, "alg2"),
    }

    runner = ExperimentRunner(
        scale=SCALE,
        benchmarks=BENCHMARKS,
        runtime=RuntimeOptions(engine_profile=REFERENCE),
    )
    per_benchmark = {
        label: {
            bench: runner.improvement(bench, factory, variant)
            for bench in BENCHMARKS
        }
        for label, (factory, variant) in HEADLINE_SCHEMES.items()
    }
    geomean = {
        label: geomean_improvement(list(values.values()))
        for label, values in per_benchmark.items()
    }
    payload = {
        "benchmarks": BENCHMARKS,
        "scale": SCALE,
        "geomean_improvement_pct": geomean,
        "per_benchmark_improvement_pct": per_benchmark,
    }
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert rendered.encode() == GOLDEN_PATH.read_bytes(), (
        "reference engine profile drifted from the committed golden "
        "headline"
    )


# ======================================================================
# memoized tables == closed forms (hypothesis)
# ======================================================================
geometry = st.tuples(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
)


@given(geom=geometry, data=st.data())
@settings(max_examples=80, deadline=None)
def test_route_table_equals_closed_form(geom, data):
    mesh = mesh_for(*geom)
    table = route_table_for(mesh)
    src = data.draw(st.integers(0, mesh.num_nodes - 1), label="src")
    dst = data.draw(st.integers(0, mesh.num_nodes - 1), label="dst")
    closed = xy_route(mesh, src, dst)
    assert table.route(src, dst) == closed
    assert table.hops(src, dst) == closed.hops
    assert table.link_ids(src, dst) == tuple(
        mesh.link(a, b).link_id
        for a, b in zip(closed.nodes, closed.nodes[1:])
    )


def test_route_table_is_exhaustively_correct_on_paper_mesh():
    mesh = mesh_for(DEFAULT_CONFIG.noc.width, DEFAULT_CONFIG.noc.height)
    table = RouteTable(mesh)
    for src in range(mesh.num_nodes):
        for dst in range(mesh.num_nodes):
            assert table.route(src, dst) == xy_route(mesh, src, dst)


def test_route_table_shared_per_mesh():
    a = route_table_for(mesh_for(4, 4))
    b = route_table_for(mesh_for(4, 4))
    assert a is b


def _memory(cfg, **changes):
    return cfg.replace(memory=dataclasses.replace(cfg.memory, **changes))


#: the default machine, other meshes, a finer interleave and more
#: controllers than the mesh has corners
ADDR_FACT_CONFIGS = (
    DEFAULT_CONFIG,
    DEFAULT_CONFIG.with_mesh(4, 4),
    DEFAULT_CONFIG.with_mesh(6, 6),
    _memory(DEFAULT_CONFIG, interleave_bytes=1024),
    _memory(DEFAULT_CONFIG.with_mesh(6, 6), num_controllers=7),
)


def test_addr_fact_matches_config_closed_forms():
    """The default machine's memoized address facts equal the config's
    closed forms for every address a real benchmark touches, and for
    addresses far enough apart to wrap the DRAM rows."""
    trace = benchmark_trace("fft", "original", 0.08)
    addrs = {
        a for stream in trace for op in stream
        for a in (op.addr, op.addr2, op.dest) if a is not None and a != -1
    }
    assert addrs, "a real benchmark trace touches addresses"
    addrs.update(k * (1 << 27) + 4160 * k for k in range(64))
    for cfg in ADDR_FACT_CONFIGS:
        machine = SystemSimulator(cfg).machine
        for addr in addrs:
            facts = machine.addr_fact(addr)
            mc_id = cfg.memory_controller(addr)
            assert facts == (
                cfg.l2_home_node(addr),
                addr // cfg.l2.line_bytes,
                mc_id,
                machine.mesh.mc_node(mc_id),
                cfg.dram_bank(addr),
                cfg.dram_row(addr),
            ), (cfg.noc, cfg.memory, addr)


# ======================================================================
# fused MachineState.travel_time == Network.traverse (hypothesis)
# ======================================================================
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(0, 24),            # src
            st.integers(0, 24),            # dst
            st.integers(0, 500),           # start
            st.sampled_from([8, 16, 64]),  # payload
            st.booleans(),                 # commit
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_transit_matches_traverse(transfers):
    cfg = DEFAULT_CONFIG
    mesh = mesh_for(cfg.noc.width, cfg.noc.height)
    table = route_table_for(mesh)
    net_a = Network(mesh, cfg.noc)
    machine = SystemSimulator(cfg).machine
    net_b = machine.network
    for src, dst, start, payload, commit in transfers:
        if src == dst:
            continue
        route = table.route(src, dst)
        link_ids = table.link_ids(src, dst)
        got_a = net_a.traverse(
            route, start, payload, commit=commit, link_ids=link_ids
        ).completion
        got_b = machine.travel_time(src, dst, start, payload, commit)
        assert got_a == got_b
    assert net_a.stats.transfers == net_b.stats.transfers
    assert net_a.stats.flit_hops == net_b.stats.flit_hops
    assert net_a.stats.total_queue_cycles == net_b.stats.total_queue_cycles
    assert [t.intervals() for t in net_a.timelines()] == [
        t.intervals() for t in net_b.timelines()
    ]


# ======================================================================
# the event stream is profile-invariant
# ======================================================================
def test_event_stream_identical_across_profiles():
    streams = {}
    for profile in ENGINE_PROFILES:
        bus = EventBus()
        _run_lineup("fft", profile, bus=bus)
        assert bus.emitted > 0, "lineup emitted no events at all"
        streams[profile] = bus.collected()
    assert streams[OPTIMIZED] == streams[REFERENCE], (
        "the fused fast paths dropped or reordered events"
    )
    kinds = {e.kind for e in streams[OPTIMIZED]}
    # The lineup exercises the offload lifecycle, not just stalls.
    assert "offload_completed" in kinds


# ======================================================================
# perf knobs never fork cache keys
# ======================================================================
class TestCacheKeysUnforked:
    def test_cache_schema_still_v3(self):
        from repro.runtime.keys import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION == 3

    def test_jobkey_carries_no_engine_profile(self):
        from repro.runtime.keys import JobKey

        fields = set(JobKey.__dataclass_fields__)
        assert not any("profile" == f or "engine" in f for f in fields), (
            "engine-profile perf knobs must not enter JobKey"
        )

    def test_digest_independent_of_runtime_profile(self, tmp_path):
        """A result simulated under one profile is a disk-cache hit for
        a runner configured with the other profile."""
        from repro.analysis.experiments import ExperimentRunner
        from repro.runtime import RuntimeOptions

        digests = {}
        hits = {}
        for profile in ENGINE_PROFILES:
            runner = ExperimentRunner(
                scale=0.05,
                benchmarks=["fft"],
                runtime=RuntimeOptions(
                    cache_dir=str(tmp_path), engine_profile=profile
                ),
            )
            key = runner.job_key("fft", S.WaitForever)
            digests[profile] = key.cache_digest()
            runner.engine.run(key)
            hits[profile] = runner.engine.stats.disk_hits
        assert digests[OPTIMIZED] == digests[REFERENCE]
        assert hits[REFERENCE] == 1, (
            "the reference-profile runner should have hit the cache "
            "entry written by the optimized-profile runner"
        )

    def test_runtime_rejects_unknown_profile(self):
        from repro.runtime import RuntimeOptions

        with pytest.raises(ValueError, match="engine profile"):
            RuntimeOptions(engine_profile="turbo")
