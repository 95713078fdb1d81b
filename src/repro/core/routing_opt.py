"""Compile-time NoC route-signature selection (Section 5.2.1, challenge 3).

For a computation whose two operands live in L2 banks ``h_x`` and
``h_y`` and are consumed by core ``c``, the data responses travel
``h_x -> c`` and ``h_y -> c``.  Every *common directed link* of the two
minimal routes is a place where the attached router ALU can compute
``x op y``; the compiler therefore picks the signature pair maximizing
``popcount(S_x & S_y)`` and ships the chosen routes in the pre-compute
package (:class:`repro.isa.RouteHint`).

Because the simulated kernels access whole array slices, the operand
homes vary per iteration; :func:`select_route_hint` samples the
iteration space and picks hints for the *dominant* home pair, reporting
the fraction of iterations they cover (the pass uses this fraction as
its feasibility score for the network station).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.arch.routing import best_overlapping_routes, xy_route
from repro.arch.topology import Mesh
from repro.config import ArchConfig
from repro.core.ir import LoopNest, Ref, Statement
from repro.isa import RouteHint


@dataclass(frozen=True)
class RoutePlan:
    """Chosen response routes for one (home_x, home_y, core) triple."""

    core: int
    home_x: int
    home_y: int
    hint: RouteHint
    common_links: int
    baseline_common: int   #: overlap the default XY routes already had

    @property
    def gained_links(self) -> int:
        return self.common_links - self.baseline_common


@lru_cache(maxsize=4096)
def plan_pair(
    mesh: Mesh, core: int, home_x: int, home_y: int, limit: int = 32
) -> RoutePlan:
    """Best-overlap minimal routes for one operand-home pair.

    Pure in its arguments, so one process-wide memo serves every
    compiler pass and every trace (the plan is frozen, so sharing it is
    safe).
    """
    rx, ry, common = best_overlapping_routes(
        mesh, home_x, core, home_y, core, limit=limit
    )
    base = xy_route(mesh, home_x, core).common_links(xy_route(mesh, home_y, core))
    hint = RouteHint(rx.nodes, ry.nodes, common)
    return RoutePlan(core, home_x, home_y, hint, common, base)


def sample_homes(
    cfg: ArchConfig,
    nest: LoopNest,
    x: Ref,
    y: Ref,
    samples: int = 64,
) -> List[Tuple[int, int]]:
    """Operand L2-home pairs over a deterministic iteration sample."""
    pts = list(nest.iter_space())
    if not pts:
        return []
    step = max(1, len(pts) // samples)
    out = []
    for i in range(0, len(pts), step):
        it = pts[i]
        try:
            hx = cfg.l2_home_node(x.address(it))
            hy = cfg.l2_home_node(y.address(it))
        except Exception:
            continue
        out.append((hx, hy))
    return out


def select_route_hint(
    cfg: ArchConfig,
    mesh: Mesh,
    nest: LoopNest,
    stmt: Statement,
    core: int,
    samples: int = 64,
) -> Tuple[Optional[RouteHint], float]:
    """Route hint for the dominant home pair + achievable overlap fraction.

    Returns ``(hint, overlap_fraction)`` where ``overlap_fraction`` is
    the fraction of sampled iterations whose best-route pair shares at
    least one link (a compile-time estimate of how often the network
    station is viable for this compute).
    """
    assert stmt.compute is not None
    pairs = sample_homes(cfg, nest, stmt.compute.x, stmt.compute.y, samples)
    if not pairs:
        return None, 0.0
    overlapping = 0
    for hx, hy in pairs:
        if hx == core or hy == core:
            continue
        # A single shared link is almost always the final approach into
        # the core, where computing saves nothing; count a sample as
        # network-viable only when the routes can share >= 2 links.
        if plan_pair(mesh, core, hx, hy).common_links >= 2:
            overlapping += 1
    frac = overlapping / len(pairs)
    dominant, _ = Counter(pairs).most_common(1)[0]
    hx, hy = dominant
    if hx == core or hy == core:
        return None, frac
    plan = plan_pair(mesh, core, hx, hy)
    if plan.common_links == 0:
        return None, frac
    return plan.hint, frac
