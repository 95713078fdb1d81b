"""Runtime NDC decision schemes on synthetic contexts."""

import pytest

from repro import schemes as S
from repro.arch.stats import NEVER
from repro.config import NdcComponentMask, NdcLocation
from repro.isa import compute, pre_compute


def cand(
    loc=NdcLocation.CACHE,
    avail_x=100,
    avail_y=120,
    pkg=90,
    d_res=10,
    node=3,
    hol=0,
    extra=0,
):
    return S.StationCandidate(
        loc, node, (loc.short_name, node), avail_x, avail_y, pkg, d_res,
        extra_latency=extra, hol=hol,
    )


def ctx(op=None, candidates=(), conv_cost=200, now=50, l1x=False, l1y=False):
    return S.ComputeContext(
        op=op or compute(1, 0x100, 0x200),
        core=0,
        now=now,
        conv_completion=now + conv_cost,
        candidates=tuple(candidates),
        l1_hit_x=l1x,
        l1_hit_y=l1y,
    )


class TestStationCandidate:
    def test_window(self):
        assert cand(avail_x=100, avail_y=130).window == 30
        assert cand(avail_y=NEVER).window == NEVER

    def test_ready_and_first(self):
        c = cand(avail_x=100, avail_y=130)
        assert c.ready == 130 and c.first_avail == 100

    def test_completion_includes_hol(self):
        plain = cand().completion()
        blocked = cand(hol=500).completion()
        assert blocked > plain

    def test_completion_never(self):
        assert cand(avail_y=NEVER).completion() >= NEVER


class TestComputeContext:
    def test_conv_completion_priced_on_first_read(self):
        calls = []

        def price():
            calls.append(1)
            return 250

        c = S.ComputeContext(compute(1, 0x100, 0x200), 0, 50, price, (),
                             False, False)
        assert calls == []
        assert c.conv_completion == 250 and c.conv_cost == 200
        assert calls == [1]

    def test_blind_scheme_never_prices_conv(self):
        def price():
            raise AssertionError("a blind scheme read the estimate")

        c = S.ComputeContext(compute(1, 0x100, 0x200), 0, 50, price,
                             (cand(),), False, False)
        assert S.WaitFraction(25).decide(c).offload


class TestNoNdc:
    def test_always_conventional(self):
        d = S.NoNdc().decide(ctx(candidates=[cand()]))
        assert not d.offload


class TestBlindFirstStation:
    def test_network_meet_preferred(self):
        net = cand(NdcLocation.NETWORK, avail_x=100, avail_y=105)
        cache = cand(NdcLocation.CACHE, avail_x=100, avail_y=101)
        d = S.WaitForever().decide(ctx(candidates=[net, cache]))
        assert d.station.location == NdcLocation.NETWORK

    def test_parks_where_first_operand_rests(self):
        net = cand(NdcLocation.NETWORK, avail_x=NEVER, avail_y=NEVER)
        cache = cand(NdcLocation.CACHE, avail_x=100, avail_y=NEVER)
        mc = cand(NdcLocation.MEMCTRL, avail_x=90, avail_y=95)
        d = S.WaitForever().decide(ctx(candidates=[net, cache, mc]))
        assert d.station.location == NdcLocation.CACHE

    def test_partner_only_station_is_last_resort(self):
        cache = cand(NdcLocation.CACHE, avail_x=NEVER, avail_y=NEVER)
        mc = cand(NdcLocation.MEMCTRL, avail_x=NEVER, avail_y=95)
        d = S.WaitForever().decide(ctx(candidates=[cache, mc]))
        assert d.station is mc

    def test_no_station(self):
        c = cand(avail_x=NEVER, avail_y=NEVER)
        d = S.WaitForever().decide(ctx(candidates=[c]))
        assert not d.offload and d.skip_reason == "no_station"

    def test_blind_ignores_residency_check(self):
        d = S.WaitForever().decide(ctx(candidates=[cand()]))
        assert not d.respect_residency_check


class TestWaitFraction:
    def test_limit_scales_with_percent(self):
        d5 = S.WaitFraction(5).decide(ctx(candidates=[cand()]))
        d50 = S.WaitFraction(50).decide(ctx(candidates=[cand()]))
        assert d5.wait_limit == 25
        assert d50.wait_limit == 250

    def test_invalid_percent(self):
        with pytest.raises(ValueError):
            S.WaitFraction(0)
        with pytest.raises(ValueError):
            S.WaitFraction(101)

    def test_name(self):
        assert S.WaitFraction(25).name == "wait-25%"


class TestLastWait:
    def test_first_encounter_probes(self):
        lw = S.LastWait(slack=2)
        d = lw.decide(ctx(candidates=[cand()]))
        assert d.offload and d.wait_limit == 2

    def test_prediction_follows_last_window(self):
        lw = S.LastWait(slack=2)
        lw.observe_window(1, 37)
        d = lw.decide(ctx(candidates=[cand()]))
        assert d.wait_limit == 39

    def test_predicted_never_skips(self):
        lw = S.LastWait()
        lw.observe_window(1, 501)
        d = lw.decide(ctx(candidates=[cand()]))
        assert not d.offload and d.skip_reason == "policy"

    def test_reset_clears_history(self):
        lw = S.LastWait(slack=2)
        lw.observe_window(1, 400)
        lw.reset()
        assert lw.decide(ctx(candidates=[cand()])).wait_limit == 2


class TestMarkovWait:
    def test_learns_transitions(self):
        mw = S.MarkovWait(slack=0)
        for w in (10, 10, 10, 10):
            mw.observe_window(1, w)
        d = mw.decide(ctx(candidates=[cand()]))
        assert d.offload and d.wait_limit == 10

    def test_never_bucket_skips(self):
        mw = S.MarkovWait()
        for w in (501, 501, 501):
            mw.observe_window(1, w)
        d = mw.decide(ctx(candidates=[cand()]))
        assert not d.offload


class TestOracle:
    def test_offloads_when_profitable(self):
        c = cand(avail_x=100, avail_y=110, pkg=90, d_res=5)
        d = S.OracleScheme().decide(ctx(candidates=[c], conv_cost=500))
        assert d.offload and d.station is c
        assert d.wait_limit >= c.ready - c.pkg_arrival

    def test_skips_when_conventional_wins(self):
        c = cand(avail_x=1000, avail_y=2000)
        d = S.OracleScheme().decide(ctx(candidates=[c], conv_cost=30))
        assert not d.offload

    def test_reuse_gate(self):
        op = compute(1, 0x100, 0x200, y_reused=True)
        c = cand()
        d = S.OracleScheme().decide(ctx(op=op, candidates=[c], conv_cost=500))
        assert not d.offload and d.skip_reason == "policy"

    def test_reuse_gate_can_be_disabled(self):
        op = compute(1, 0x100, 0x200, y_reused=True)
        c = cand()
        d = S.OracleScheme(reuse_aware=False).decide(
            ctx(op=op, candidates=[c], conv_cost=500)
        )
        assert d.offload

    def test_picks_best_station(self):
        slow = cand(NdcLocation.CACHE, avail_x=100, avail_y=400)
        fast = cand(NdcLocation.MEMCTRL, avail_x=100, avail_y=120)
        d = S.OracleScheme().decide(ctx(candidates=[slow, fast], conv_cost=500))
        assert d.station is fast

    def test_margin_blocks_thin_wins(self):
        c = cand(avail_x=100, avail_y=110, pkg=90, d_res=5)
        base_completion = c.completion()
        conv = base_completion - 50 + 5  # NDC wins by only 5 cycles
        d = S.OracleScheme(margin=10).decide(
            ctx(candidates=[c], conv_cost=conv - 50, now=50)
        )
        assert not d.offload

    def test_wait_weight_penalizes_long_waits(self):
        c = cand(avail_x=100, avail_y=400, pkg=90)
        loose = S.OracleScheme(wait_weight=0.0).decide(
            ctx(candidates=[c], conv_cost=600)
        )
        strict = S.OracleScheme(wait_weight=2.0).decide(
            ctx(candidates=[c], conv_cost=600)
        )
        assert loose.offload and not strict.offload


class TestCompilerDirected:
    def test_plain_compute_stays_conventional(self):
        d = S.CompilerDirected().decide(ctx(candidates=[cand()]))
        assert not d.offload

    def test_pre_compute_uses_mask(self):
        op = pre_compute(1, 0x100, 0x200, mask=NdcComponentMask.MEMCTRL)
        cache = cand(NdcLocation.CACHE)
        mc = cand(NdcLocation.MEMCTRL, avail_x=100, avail_y=130)
        d = S.CompilerDirected().decide(ctx(op=op, candidates=[cache, mc]))
        assert d.offload and d.station.location == NdcLocation.MEMCTRL

    def test_prefers_both_available(self):
        op = pre_compute(1, 0x100, 0x200, mask=NdcComponentMask.ALL)
        partial = cand(NdcLocation.CACHE, avail_x=100, avail_y=NEVER)
        full = cand(NdcLocation.MEMCTRL, avail_x=100, avail_y=130)
        d = S.CompilerDirected().decide(ctx(op=op, candidates=[partial, full]))
        assert d.station.location == NdcLocation.MEMCTRL

    def test_parks_when_only_partial(self):
        op = pre_compute(1, 0x100, 0x200, mask=NdcComponentMask.CACHE, timeout=33)
        partial = cand(NdcLocation.CACHE, avail_x=100, avail_y=NEVER)
        d = S.CompilerDirected().decide(ctx(op=op, candidates=[partial]))
        assert d.offload and d.wait_limit == 33

    def test_no_station_when_mask_excludes(self):
        op = pre_compute(1, 0x100, 0x200, mask=NdcComponentMask.MEMORY)
        cache = cand(NdcLocation.CACHE)
        d = S.CompilerDirected().decide(ctx(op=op, candidates=[cache]))
        assert not d.offload and d.skip_reason == "no_station"

    def test_default_timeout_applies(self):
        op = pre_compute(1, 0x100, 0x200, mask=NdcComponentMask.CACHE, timeout=0)
        d = S.CompilerDirected(default_timeout=77).decide(
            ctx(op=op, candidates=[cand()])
        )
        assert d.wait_limit == 77


class TestLineup:
    def test_standard_schemes_cover_fig4(self):
        names = [e.build().name for e in S.build_lineup()]
        assert "wait-forever" in names
        assert "oracle" in names
        assert "last-wait" in names
        fixed_waits = [n for n in names
                       if n.startswith("wait-") and n != "wait-forever"]
        assert len(fixed_waits) == 4


class TestSchemeRegistry:
    def test_registry_covers_the_lineups(self):
        for label in S.DEFAULT_LINEUP + S.SHOOTOUT_LINEUP:
            assert label in S.SCHEMES
        assert S.SCHEME_LABELS == tuple(S.SCHEMES)

    def test_unknown_label_names_the_valid_set(self):
        with pytest.raises(ValueError) as exc:
            S.build_scheme("no-such-scheme")
        msg = str(exc.value)
        assert "no-such-scheme" in msg
        for label in ("coda", "nmpo", "oracle"):
            assert label in msg

    def test_build_lineup_defaults_to_fig4(self):
        via_default = S.build_lineup()
        via_labels = S.build_lineup(S.DEFAULT_LINEUP)
        assert [e.label for e in via_default] == list(S.DEFAULT_LINEUP)
        assert [e.spec_key() for e in via_default] == \
               [e.spec_key() for e in via_labels]

    def test_named_casts_nest(self):
        """Every named cast is defined once, in terms of the others."""
        assert S.HEADLINE_LINEUP == (
            "default", "oracle", "algorithm-1", "algorithm-2",
        )
        assert S.SHOOTOUT_LINEUP == S.HEADLINE_LINEUP + ("coda", "nmpo")
        assert set(S.HEADLINE_LINEUP) <= set(S.DEFAULT_LINEUP)
        # repro compare's cast: the headline bars, with the Default bar
        # under its wait-forever alias (same scheme, same trace).
        assert [e.spec_key()[1:] for e in S.build_lineup(S.COMPARE_LINEUP)] \
            == [e.spec_key()[1:] for e in S.build_lineup(S.HEADLINE_LINEUP)]

    def test_entries_carry_variant_and_buildable_factory(self):
        for label, entry in zip(
            S.SHOOTOUT_LINEUP, S.build_lineup(S.SHOOTOUT_LINEUP)
        ):
            assert entry.label == label
            scheme = entry.build()
            assert isinstance(scheme, S.NdcScheme)
        coda = S.build_scheme("coda")
        assert coda.variant == "coda"
        nmpo = S.build_scheme("nmpo")
        assert nmpo.variant == "original"
        assert nmpo.build().spec()[0] == "NmpoScheme"

    def test_tunables_thread_into_factories(self):
        from repro.core.tunables import Tunables

        t = Tunables().replace(nmpo_hit_rate=0.9)
        scheme = S.build_scheme("nmpo", t).build()
        assert scheme.hit_rate == 0.9


def nmpo_profile(pc=1, issued=4, completed=3, timed_out=1, bounced=0,
                 max_completed_wait=20):
    site = S.SiteProfile(
        issued=issued, parked=issued, completed=completed,
        timed_out=timed_out, bounced=bounced,
        max_completed_wait=max_completed_wait,
        max_wait_needed=max_completed_wait,
    )
    return S.OffloadProfile({pc: site}, {})


class TestNmpoScheme:
    def test_without_profile_nothing_offloads(self):
        d = S.NmpoScheme().decide(ctx(candidates=[cand()]))
        assert not d.offload and d.skip_reason == "policy"

    def test_admitted_site_offloads_with_profiled_limit(self):
        nm = S.NmpoScheme(min_samples=2, hit_rate=0.6, wait_slack=4)
        nm.attach_profile(nmpo_profile(max_completed_wait=20))
        d = nm.decide(ctx(candidates=[cand(avail_y=110)]))
        assert d.offload and d.wait_limit == 24

    def test_limit_capped_by_warmup_cap(self):
        nm = S.NmpoScheme(wait_slack=4, warmup_cap=10)
        nm.attach_profile(nmpo_profile(max_completed_wait=20))
        d = nm.decide(ctx(candidates=[cand(avail_y=100)]))
        assert d.offload and d.wait_limit == 10

    def test_station_needing_more_than_the_register_is_skipped(self):
        """A visible park whose required wait exceeds the programmed
        time-out register would only bounce there — not taken."""
        nm = S.NmpoScheme(wait_slack=4)
        nm.attach_profile(nmpo_profile(max_completed_wait=20))
        d = nm.decide(ctx(candidates=[cand(avail_y=200)]))
        assert not d.offload and d.skip_reason == "policy"

    def test_low_hit_rate_site_is_rejected(self):
        nm = S.NmpoScheme(min_samples=2, hit_rate=0.9)
        nm.attach_profile(nmpo_profile(issued=4, completed=2, timed_out=2))
        d = nm.decide(ctx(candidates=[cand()]))
        assert not d.offload and d.skip_reason == "policy"

    def test_under_sampled_site_is_rejected(self):
        nm = S.NmpoScheme(min_samples=8)
        nm.attach_profile(nmpo_profile(issued=4))
        d = nm.decide(ctx(candidates=[cand()]))
        assert not d.offload and d.skip_reason == "policy"

    def test_unprofiled_pc_is_rejected(self):
        nm = S.NmpoScheme()
        nm.attach_profile(nmpo_profile(pc=999))
        d = nm.decide(ctx(candidates=[cand()]))
        assert not d.offload and d.skip_reason == "policy"

    def test_breakeven_guard_drops_unprofitable_offloads(self):
        nm = S.NmpoScheme()
        nm.attach_profile(nmpo_profile())
        d = nm.decide(ctx(candidates=[cand()], conv_cost=30))
        assert not d.offload and d.skip_reason == "policy"

    def test_blind_park_bounded_by_conventional_cost(self):
        """A park at a station that cannot see the partner is only
        taken when the programmed worst-case wait undercuts the
        conventional cost; otherwise the bet cannot pay off."""
        nm = S.NmpoScheme(wait_slack=4)
        nm.attach_profile(nmpo_profile(max_completed_wait=20))
        blind = cand(avail_y=NEVER)
        d = nm.decide(ctx(candidates=[blind], conv_cost=200))
        assert d.offload and d.wait_limit == 24
        d = nm.decide(ctx(candidates=[blind], conv_cost=20))
        assert not d.offload and d.skip_reason == "policy"

    def test_reused_operands_veto_an_admitted_site(self):
        """The k = 0 selectivity rule: even a profile-proven site is
        skipped when an operand line is reused afterwards."""
        nm = S.NmpoScheme()
        nm.attach_profile(nmpo_profile())
        op = compute(1, 0x100, 0x200, y_reused=True)
        d = nm.decide(ctx(op=op, candidates=[cand()]))
        assert not d.offload and d.skip_reason == "policy"

    def test_spec_roundtrips_through_the_registry(self):
        nm = S.NmpoScheme(min_samples=3, hit_rate=0.75, wait_slack=7)
        clone = S.scheme_from_spec(nm.spec())
        assert isinstance(clone, S.NmpoScheme)
        assert clone.spec() == nm.spec()

    def test_profile_digest_is_content_addressed(self):
        a, b = nmpo_profile(), nmpo_profile()
        assert a.digest() == b.digest()
        assert a.digest() != nmpo_profile(completed=2).digest()
