"""Legality and identity pins for the beyond-paper schemes (ISSUE 10).

* The ``coda`` placement pass must never relocate an array that is
  referenced through an :class:`~repro.core.ir.OpaqueRef` anywhere in
  the program — the resolver computed concrete addresses at build
  time, so re-basing would silently break the correspondence.
* The ``nmpo`` warm-up profile is content-addressed: its digest must be
  identical across engine profiles, and so must the ``nmpo`` result
  (the event stream it mines is pinned profile-invariant by the
  differential suite).
* The scheme-registry API must not move the pre-registry ground truth:
  the default :class:`~repro.campaign.SweepSpec` digest (and therefore
  every existing campaign id) is pinned byte-for-byte.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro import schemes as S
from repro.arch.engine import ENGINE_PROFILES
from repro.arch.events import EventBus
from repro.arch.simulator import SystemSimulator
from repro.campaign import SweepSpec
from repro.config import DEFAULT_CONFIG
from repro.core.ir import (
    AddressSpaceAllocator,
    LoopNest,
    OpaqueRef,
    Program,
    Statement,
)
from repro.core.layout import PlacementPass, coda_placement
from repro.core.tunables import Tunables
from repro.workloads import benchmark_trace
from repro.workloads.kernels import (
    SidCounter,
    frontier_expand,
    hash_join_probe,
    spmv_csr,
    stream_pair,
)

# ======================================================================
# coda placement legality
# ======================================================================

#: stream_pair congruence that the placement pass provably fixes (an
#: odd page delta lands the operands on different controllers).
MISALIGNED_DELTA = 1


def _pin_resolver(iteration):
    return (int(iteration[0]),)


def misaligned_program(pin_b: bool = False) -> Program:
    """One relocation opportunity; optionally pinned by an OpaqueRef."""
    alloc = AddressSpaceAllocator(base=1 << 22)
    sid = SidCounter()
    nest = stream_pair(alloc, sid, "t", n=64, pair_delta=MISALIGNED_DELTA)
    nests = [nest]
    if pin_b:
        B = next(a for a in nest.arrays() if a.name == "t_B")
        nests.append(LoopNest(
            "t.pin", (0,), (7,),
            (Statement(
                sid(),
                reads=(OpaqueRef(B, resolver=_pin_resolver, tag="pin"),),
                work=1,
            ),),
        ))
    return Program(name="t", nests=tuple(nests))


def opaque_array_names(program: Program) -> set:
    names = set()
    for nest in program.nests:
        for stmt in nest.body:
            refs = list(stmt.all_reads()) + list(stmt.all_writes())
            for r in refs:
                if isinstance(r, OpaqueRef):
                    names.add(r.array.name)
    return names


def sparse_nest(kind: str, size: int, seed: int):
    # sids start past the affine program's so the two can be combined.
    alloc = AddressSpaceAllocator(base=1 << 24)
    sid = SidCounter(start=1000)
    if kind == "spmv":
        return spmv_csr(alloc, sid, "s", rows=size, nnz_per_row=4, seed=seed)
    if kind == "hash":
        return hash_join_probe(
            alloc, sid, "s", probes=size, buckets=max(8, size // 2),
            seed=seed,
        )
    return frontier_expand(alloc, sid, "s", frontier=size, degree=4,
                           seed=seed)


class TestCodaPlacementLegality:
    def test_misaligned_pair_is_relocated(self):
        """Non-vacuity: without a pin, the pass does move the operand."""
        program, report = coda_placement(
            misaligned_program(pin_b=False), DEFAULT_CONFIG
        )
        assert report.moved == 1
        assert report.relocations[0].array == "t_B"

    def test_opaque_pin_blocks_the_relocation(self):
        before = misaligned_program(pin_b=True)
        base_before = {
            a.name: a.base for n in before.nests for a in n.arrays()
        }
        after, report = coda_placement(before, DEFAULT_CONFIG)
        assert report.moved == 0
        for nest in after.nests:
            for a in nest.arrays():
                assert a.base == base_before[a.name]

    @given(
        kind=st.sampled_from(("spmv", "hash", "frontier")),
        size=st.integers(min_value=16, max_value=96),
        seed=st.integers(min_value=0, max_value=2**16),
        target=st.sampled_from(("memctrl", "memory")),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_relocates_opaque_referenced_arrays(
        self, kind, size, seed, target
    ):
        """Property: over seeded sparse programs (plus one affine
        relocation opportunity so the pass has real work), no
        relocation ever names an OpaqueRef-referenced array, and every
        such array's placement survives the rewrite byte-identically."""
        affine = misaligned_program(pin_b=False)
        program = Program(
            name="p", nests=affine.nests + (sparse_nest(kind, size, seed),)
        )
        pinned = opaque_array_names(program)
        assert pinned, "generator produced no opaque refs"
        bases = {a.name: a.base for n in program.nests for a in n.arrays()}
        t = Tunables().replace(placement_target=target)
        rewritten, report = coda_placement(program, DEFAULT_CONFIG, t)
        for rel in report.relocations:
            assert rel.array not in pinned
        for nest in rewritten.nests:
            for a in nest.arrays():
                if a.name in pinned:
                    assert a.base == bases[a.name]

    def test_unknown_placement_target_rejected(self):
        t = Tunables().replace(placement_target="nowhere")
        with pytest.raises(ValueError) as exc:
            PlacementPass(DEFAULT_CONFIG, tunables=t)
        assert "memctrl" in str(exc.value)

    def test_max_moves_caps_relocations(self):
        alloc = AddressSpaceAllocator(base=1 << 22)
        sid = SidCounter()
        nests = tuple(
            stream_pair(alloc, sid, f"t{i}", n=64,
                        pair_delta=MISALIGNED_DELTA)
            for i in range(3)
        )
        program = Program(name="t", nests=nests)
        _, unlimited = coda_placement(program, DEFAULT_CONFIG)
        assert unlimited.moved >= 2
        t = Tunables().replace(placement_max_moves=1)
        _, capped = coda_placement(program, DEFAULT_CONFIG, t)
        assert capped.moved == 1


# ======================================================================
# nmpo warm-up profile determinism
# ======================================================================

class TestNmpoProfileDeterminism:
    def test_digest_identical_across_engine_profiles(self):
        """The profile digest is a pure function of the pinned event
        stream, so every engine profile mines the same profile."""
        cfg = DEFAULT_CONFIG
        cap = Tunables().hard_wait_cap
        trace = benchmark_trace("fft", "original", 0.1, cfg)
        digests = {}
        for profile in ENGINE_PROFILES:
            bus = EventBus()
            sim = SystemSimulator(
                cfg, S.WaitForever(wait_cap=cap),
                engine_profile=profile, event_bus=bus,
            )
            sim.run(trace)
            prof = S.OffloadProfile.from_events(bus.collected())
            digests[profile] = prof.digest()
            assert prof.sites, f"{profile}: warm-up mined no sites"
        assert len(set(digests.values())) == 1, digests

    def test_warmup_cache_keys_on_the_trace_object(self):
        cfg = DEFAULT_CONFIG
        cap = Tunables().hard_wait_cap
        trace = benchmark_trace("fft", "original", 0.08, cfg)
        S.clear_profile_cache()
        first = S.warmup_profile(cfg, trace, cap)
        again = S.warmup_profile(cfg, trace, cap)
        assert first is again  # served from the cache, not re-run
        assert first.digest() == again.digest()
        # The entry holds its trace, so the id it is keyed by cannot be
        # reused by another trace while the entry lives.
        assert [t for t, _ in S._PROFILE_CACHE.values()] == [trace]

    def test_nmpo_result_identical_across_engine_profiles(self):
        results = [
            api.simulate("fft", "nmpo", scale=0.08, profile=profile,
                         cache=False)
            for profile in ENGINE_PROFILES
        ]
        assert len(results) >= 2
        assert all(r == results[0] for r in results)


# ======================================================================
# registry API: pre-existing campaign identity must not move
# ======================================================================

#: Digest of the *default* SweepSpec, captured before the registry
#: landed — existing on-disk campaign ids must keep resolving.
DEFAULT_SPEC_DIGEST = (
    "09e67512a130c7c59d17d94a3a98a95c"
    "4200b522686ca513a7da1135fa85687f"
)


class TestSweepSpecSchemesAxis:
    def test_default_spec_digest_pinned(self):
        assert SweepSpec().spec_digest() == DEFAULT_SPEC_DIGEST

    def test_named_axis_digest_pinned(self):
        spec = SweepSpec(
            benchmarks=("fft", "swim"),
            schemes=("oracle", "algorithm-1"),
            scales=(0.3,),
        )
        assert spec.spec_digest() == (
            "70da706fe88b2b4be26245bce0a15602"
            "3c16cbbf66c0f2ce96c6ec8ef10aa614"
        )
        assert spec.campaign_id == "sweep-70da706fe88b"

    def test_schemes_axis_roundtrips_with_new_labels(self):
        spec = SweepSpec(
            benchmarks=("fft",),
            schemes=("oracle", "coda", "nmpo"),
            scales=(0.25,),
        )
        clone = SweepSpec.from_dict(spec.to_json_dict())
        assert clone == spec
        assert clone.spec_digest() == spec.spec_digest()
        labels = {u.label for u in spec.expand()}
        assert {"coda", "nmpo", "oracle", "original"} <= labels

    def test_unknown_scheme_label_rejected_at_spec_load(self):
        with pytest.raises(ValueError) as exc:
            SweepSpec.from_dict(
                {"benchmarks": ["fft"], "schemes": ["warp-drive"]}
            )
        msg = str(exc.value)
        assert "warp-drive" in msg
        assert "coda" in msg and "oracle" in msg

    def test_api_sweep_schemes_replaces_the_axis(self):
        spec = SweepSpec(benchmarks=("fft",), scales=(0.25,))
        replaced = dataclasses.replace(spec, schemes=("coda",))
        assert replaced.schemes == ("coda",)
        with pytest.raises(ValueError):
            api.sweep(schemes=("oracle",))  # needs a spec to apply to


class TestApiSchemesKeyword:
    """The uniform ``schemes=`` keyword fails fast at the facade."""

    def test_lineup_rejects_unknown_labels(self):
        with pytest.raises(ValueError) as exc:
            api.lineup(schemes=["definitely-not-a-scheme"])
        assert "valid schemes" in str(exc.value)

    def test_evaluate_rejects_unknown_labels(self):
        with pytest.raises(ValueError):
            api.evaluate(schemes="nope")

    def test_tune_rejects_unknown_labels(self):
        with pytest.raises(ValueError):
            api.tune(schemes=["nope"], smoke=True)

    def test_characterize_needs_one_selection_style(self):
        with pytest.raises(ValueError):
            api.characterize("fft", "oracle", schemes=["nmpo"])

    def test_lineup_accepts_the_shootout_cast(self):
        res = api.lineup(
            scale=0.05, benchmarks=["fft"],
            schemes=("oracle", "coda", "nmpo"), cache=False,
        )
        per_bench = res.data["per_benchmark"]
        assert set(per_bench["fft"]) == {"oracle", "coda", "nmpo"}

    def test_characterize_schemes_returns_labelled_profiles(self):
        out = api.characterize(
            "fft", schemes=("oracle",), scale=0.05, cache=False,
        )
        assert set(out) == {"oracle"}
        assert out["oracle"].bottleneck_class
