"""Algorithm 1: exploiting NDC through computation restructuring.

For every use-use chain (a two-operand computation and the statements
feeding its operands) the pass:

1. checks, with the CME estimator, that both operands are expected to
   miss the L1 (otherwise conventional execution with its local-cache
   locality is kept — Fig. 1's local-probe philosophy applied
   statically);
2. tries the four NDC stations in the paper's trial order — network
   router, L2 bank, (router again on the L2-miss path,) memory queue,
   memory bank — scoring each by the fraction of sampled iterations for
   which the station could co-locate the operands (same home bank /
   overlappable routes / same controller / same DRAM bank), with the
   route-reselection knob enlarging the network station's share;
3. restructures the code: statement motion pulls the operand feeders
   and the computation together (Fig. 8), and a legal unimodular loop
   transformation aligns cross-iteration feeder distances
   (Section 5.2.1's ``T`` solving);
4. emits an offload plan — the information lowered into the
   ``pre-compute`` instruction: the component mask, the time-out
   register value (set near the station's breakeven), and whether to
   attach per-instance route hints.

The pass is architecture-aware: it receives the same
:class:`~repro.config.ArchConfig` the simulator runs, which is the
paper's "architecture description" input (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.topology import Mesh, mesh_for
from repro.config import ArchConfig, NdcComponentMask, NdcLocation
from repro.core import dependence as dep_mod
from repro.core.cme import CmeEstimator
from repro.core.ir import LoopNest, Program, Statement
from repro.core.motion import align_iterations, reduce_use_use_distance
from repro.core.reuse import UseUseChain, extract_use_use_chains
from repro.core.tunables import DEFAULT_TUNABLES, Tunables


@dataclass(frozen=True)
class OffloadPlan:
    """Per-static-compute offload directive consumed by the lowering."""

    sid: int
    mask: NdcComponentMask
    primary: NdcLocation
    timeout: int
    use_route_hints: bool
    feasible_fraction: float    #: compile-time co-location estimate


@dataclass
class ChainDecision:
    """Audit record of the pass's reasoning for one chain."""

    sid: int
    offloaded: bool
    reason: str                 #: 'ok' | 'l1-hit' | 'no-station' | 'reuse'
    location: Optional[NdcLocation] = None
    motion_strategy: str = "none"
    transform_applied: bool = False
    route_overlap_fraction: float = 0.0
    station_fractions: Dict[NdcLocation, float] = field(default_factory=dict)


@dataclass
class PassReport:
    """What the pass did to a program (Fig. 15 feeds off this)."""

    program: str
    decisions: List[ChainDecision] = field(default_factory=list)

    @property
    def opportunities_seen(self) -> int:
        return sum(1 for d in self.decisions if d.reason in ("ok", "reuse"))

    @property
    def opportunities_exercised(self) -> int:
        return sum(1 for d in self.decisions if d.offloaded)

    @property
    def exercised_fraction(self) -> float:
        seen = self.opportunities_seen
        return self.opportunities_exercised / seen if seen else 0.0

    def location_counts(self) -> Dict[NdcLocation, int]:
        out = {loc: 0 for loc in NdcLocation}
        for d in self.decisions:
            if d.offloaded and d.location is not None:
                out[d.location] += 1
        return out


# The station-feasibility thresholds historically lived here as the
# module globals ``_FEASIBILITY_THRESHOLD`` / ``_NETWORK_THRESHOLD``;
# they are fields of :class:`repro.core.tunables.Tunables`
# (``feasibility_threshold`` / ``network_threshold``) so they can be
# calibrated per scale and participate in cache digests.  The PEP 562
# shims that kept the old names importable served out their
# deprecation window and were removed.


class Algorithm1:
    """The restructuring NDC pass (paper Algorithm 1).

    Parameters
    ----------
    cfg:
        Architecture description.
    mask:
        Control-register mask restricting candidate stations (Fig. 14's
        single-component experiments pass ``NdcComponentMask.only(...)``).
    enable_route_reselection:
        The Section 5.2.1 network knob; disabling it reproduces the
        "no re-routing" ablation (≈40 % fewer router NDCs).
    enable_motion / enable_transform:
        Statement motion and unimodular alignment; both on by default.
    coarse_grain:
        Map *whole loop nests* to a single station instead of deciding
        per computation — the poorly-performing variant the paper
        evaluates at the end of Section 5.4.
    tunables:
        The calibrated constants (thresholds, time-out registers, CME
        gate, sampling budget).  Defaults to
        :data:`~repro.core.tunables.DEFAULT_TUNABLES`; ``repro tune``
        searches this space.  The legacy ``timeout`` / ``samples`` /
        ``min_miss_rate`` keyword overrides still win over the tunables
        when given explicitly.
    """

    name = "algorithm-1"

    def __init__(
        self,
        cfg: ArchConfig,
        mask: NdcComponentMask = NdcComponentMask.ALL,
        enable_route_reselection: bool = True,
        enable_motion: bool = True,
        enable_transform: bool = True,
        coarse_grain: bool = False,
        timeout: Optional[Dict[NdcLocation, int]] = None,
        samples: Optional[int] = None,
        min_miss_rate: Optional[float] = None,
        tunables: Optional[Tunables] = None,
    ):
        self.cfg = cfg
        self.mask = mask
        self.tunables = tunables if tunables is not None else DEFAULT_TUNABLES
        self.min_miss_rate = (
            self.tunables.min_miss_rate if min_miss_rate is None
            else min_miss_rate
        )
        #: per-component time-out register values, set near each
        #: station's breakeven: link buffers cannot hold data long,
        #: cache banks wait a round trip, memory stations must cover a
        #: row conflict plus queueing.
        self.timeouts: Dict[NdcLocation, int] = self.tunables.timeouts(cfg)
        if timeout:
            self.timeouts.update(timeout)
        # (kept for backwards compat in reports)
        self.enable_route_reselection = enable_route_reselection
        self.enable_motion = enable_motion
        self.enable_transform = enable_transform
        self.coarse_grain = coarse_grain
        self.samples = self.tunables.samples if samples is None else samples
        self.mesh: Mesh = mesh_for(cfg.noc.width, cfg.noc.height)
        self.l1_cme = CmeEstimator(cfg.l1)
        # The shared L2: aggregate capacity across banks divided by the
        # co-running threads.
        self.l2_cme = CmeEstimator(
            cfg.l2, sharers=self.mesh.num_nodes, banks=self.mesh.num_nodes
        )

    # ------------------------------------------------------------------
    def run(
        self, program: Program
    ) -> Tuple[Program, Dict[int, OffloadPlan], PassReport]:
        """Transform ``program``; returns (new program, plans, report)."""
        report = PassReport(program.name)
        plans: Dict[int, OffloadPlan] = {}
        current = program
        for nest in list(program.nests):
            new_nest, nest_plans, decisions = self._process_nest(nest)
            current = current.replace_nest(
                next(n for n in current.nests if n.name == nest.name), new_nest
            )
            plans.update(nest_plans)
            report.decisions.extend(decisions)
        if self.coarse_grain:
            plans = self._coarsen(current, plans)
        return current, plans, report

    # ------------------------------------------------------------------
    def _process_nest(
        self, nest: LoopNest
    ) -> Tuple[LoopNest, Dict[int, OffloadPlan], List[ChainDecision]]:
        decisions: List[ChainDecision] = []
        plans: Dict[int, OffloadPlan] = {}
        deps = dep_mod.analyze(nest)
        chains = extract_use_use_chains(nest)
        current = nest
        for chain in chains:
            stmt = next(st for st in current.body if st.sid == chain.compute_sid)
            decision = self._decide_chain(current, deps, chain, stmt)
            decisions.append(decision)
            if not decision.offloaded:
                continue
            # --- restructuring -------------------------------------------
            if self.enable_motion:
                motion = reduce_use_use_distance(current, deps, chain)
                if motion.strategy != "none":
                    current = motion.nest
                    deps = dep_mod.analyze(current)
                decision.motion_strategy = motion.strategy
            if self.enable_transform and current.transform is None:
                transformed, T = align_iterations(current, deps, chain)
                if T is not None:
                    current = transformed
                    decision.transform_applied = True
            assert decision.location is not None
            # The package is directed at the chosen station via the
            # control register (Section 2's "directly sent" mode) plus
            # the memory side as a fallback when it also scored: memory
            # always holds clean data, so it can serve the instances the
            # primary station cannot.
            mask = NdcComponentMask.only(decision.location)
            for loc in (NdcLocation.MEMCTRL, NdcLocation.MEMORY):
                if (
                    decision.station_fractions.get(loc, 0.0)
                    >= self.tunables.feasibility_threshold
                    and self.mask.allows(loc)
                ):
                    mask |= NdcComponentMask.only(loc)
            plans[chain.compute_sid] = OffloadPlan(
                sid=chain.compute_sid,
                mask=mask,
                primary=decision.location,
                timeout=self.timeouts[decision.location],
                use_route_hints=(
                    self.enable_route_reselection
                    and bool(mask & NdcComponentMask.NETWORK)
                ),
                feasible_fraction=decision.station_fractions.get(
                    decision.location, 0.0
                ),
            )
        return current, plans, decisions

    # ------------------------------------------------------------------
    def _decide_chain(
        self,
        nest: LoopNest,
        deps,
        chain: UseUseChain,
        stmt: Statement,
    ) -> ChainDecision:
        d = ChainDecision(sid=chain.compute_sid, offloaded=False, reason="ok")
        # 1. CME gate: a non-trivial fraction of both operands' instances
        # must miss the L1 (hit instances are filtered by the run-time
        # local probe, so the static bar is low).
        x_rate, y_rate = self.l1_cme.operand_miss_rates(nest, stmt)
        if min(x_rate, y_rate) < self.min_miss_rate:
            d.reason = "l1-hit"
            return d
        # 2. Station scoring in trial order.
        l2_resident = self._operands_l2_resident(nest, stmt)
        fractions = self._station_fractions(nest, stmt, l2_resident)
        d.station_fractions = fractions
        order = self._trial_order(l2_resident)
        for loc in order:
            if not self.mask.allows(loc):
                continue
            frac = fractions.get(loc, 0.0)
            threshold = (
                self.tunables.network_threshold
                if loc == NdcLocation.NETWORK
                else self.tunables.feasibility_threshold
            )
            if frac >= threshold:
                d.offloaded = True
                d.location = loc
                d.route_overlap_fraction = fractions.get(NdcLocation.NETWORK, 0.0)
                return d
        d.reason = "no-station"
        return d

    def _trial_order(self, l2_resident: bool) -> List[NdcLocation]:
        """Router, L2, (router,) memory queue, memory bank (Section 5.2.1).

        When the operands are predicted to miss the L2 the second router
        attempt and the memory stations are where the data actually is,
        so the cache station is skipped to its natural place in the
        order.
        """
        if l2_resident:
            return [
                NdcLocation.NETWORK,
                NdcLocation.CACHE,
                NdcLocation.MEMCTRL,
                NdcLocation.MEMORY,
            ]
        return [
            NdcLocation.NETWORK,
            NdcLocation.MEMCTRL,
            NdcLocation.MEMORY,
            NdcLocation.CACHE,
        ]

    def _operands_l2_resident(self, nest: LoopNest, stmt: Statement) -> bool:
        x_miss, y_miss = self.l2_cme.operand_verdicts(nest, stmt)
        return not (x_miss or y_miss)

    def _station_fractions(
        self, nest: LoopNest, stmt: Statement, l2_resident: bool
    ) -> Dict[NdcLocation, float]:
        """Fraction of sampled iterations each station can co-locate.

        The network fraction counts samples whose two response *sources*
        differ (same-source pairs are the cache/memory stations' own
        territory) and whose routes to the consumer can share at least
        two links — with reselected routes when the knob is on, default
        XY routes otherwise (the ablation).
        """
        assert stmt.compute is not None
        cfg = self.cfg
        from repro.arch.routing import xy_route
        from repro.core.routing_opt import plan_pair

        out = {loc: 0.0 for loc in NdcLocation}
        pts = list(nest.iter_space())
        if not pts:
            return out
        core = self.mesh.num_nodes // 2
        step = max(1, len(pts) // self.samples)
        samples = home_same = mc_same = bank_same = net_ok = 0
        for i in range(0, len(pts), step):
            it = pts[i]
            try:
                ax = stmt.compute.x.address(it)
                ay = stmt.compute.y.address(it)
            except Exception:
                continue
            samples += 1
            hx, hy = cfg.l2_home_node(ax), cfg.l2_home_node(ay)
            mcx, mcy = cfg.memory_controller(ax), cfg.memory_controller(ay)
            if hx == hy:
                home_same += 1
            if mcx == mcy:
                mc_same += 1
                if cfg.dram_bank(ax) == cfg.dram_bank(ay):
                    bank_same += 1
            if l2_resident:
                sx, sy = hx, hy
            else:
                sx, sy = self.mesh.mc_node(mcx), self.mesh.mc_node(mcy)
            if sx == sy or sx == core or sy == core:
                continue
            if self.enable_route_reselection:
                common = plan_pair(self.mesh, core, sx, sy).common_links
            else:
                common = xy_route(self.mesh, sx, core).common_links(
                    xy_route(self.mesh, sy, core)
                )
            if common >= 2:
                net_ok += 1
        if samples:
            out[NdcLocation.CACHE] = home_same / samples
            out[NdcLocation.MEMCTRL] = mc_same / samples
            out[NdcLocation.MEMORY] = bank_same / samples
            out[NdcLocation.NETWORK] = net_ok / samples
        return out

    # ------------------------------------------------------------------
    def _coarsen(
        self, program: Program, plans: Dict[int, OffloadPlan]
    ) -> Dict[int, OffloadPlan]:
        """Coarse-grain variant: one station per loop nest (Section 5.4).

        Every compute of every nest is forced to a single station — the
        nest's dominant planned station when the fine-grain pass chose
        one, the program-wide dominant otherwise — including the
        computes the fine-grain pass deliberately kept on the core.
        Dragging in the unsuitable instances (and losing the per-chain
        reuse/feasibility judgement) is why this variant performs
        poorly, which is the paper's conclusion that "fine grain
        (instruction level) mapping is critical".
        """
        global_counts: Dict[NdcLocation, int] = {}
        for p in plans.values():
            global_counts[p.primary] = global_counts.get(p.primary, 0) + 1
        global_dominant = (
            max(global_counts, key=global_counts.__getitem__)
            if global_counts
            else NdcLocation.CACHE
        )
        out: Dict[int, OffloadPlan] = {}
        for nest in program.nests:
            nest_plans = [plans[st.sid] for st in nest.body if st.sid in plans]
            counts: Dict[NdcLocation, int] = {}
            for p in nest_plans:
                counts[p.primary] = counts.get(p.primary, 0) + 1
            dominant = (
                max(counts, key=counts.__getitem__)
                if counts
                else global_dominant
            )
            for st in nest.body:
                if st.compute is None:
                    continue
                out[st.sid] = OffloadPlan(
                    sid=st.sid,
                    mask=NdcComponentMask.only(dominant),
                    primary=dominant,
                    timeout=self.timeouts[dominant],
                    use_route_hints=dominant == NdcLocation.NETWORK
                    and self.enable_route_reselection,
                    feasible_fraction=0.0,
                )
        return out
