"""Minimal-route enumeration and route signatures.

Section 5.2.1 (third challenge) represents each minimal route from node
``(p1,q1)`` to ``(p2,q2)`` as an L-bit *signature* over the mesh's L
links: bit k is set iff the route uses link k.  The compiler selects, for
a pair of data accesses, the signature pair maximizing the number of
common links (``popcount(S_x & S_y)``), since every common link is an
opportunity to perform the computation in the attached router.

The default (hardware) route is deterministic XY: traverse the X
dimension fully, then Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

from repro.arch.topology import Mesh


@dataclass(frozen=True)
class RouteSignature:
    """A concrete route: the node sequence plus its link bit mask."""

    nodes: Tuple[int, ...]
    mask: int

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    def common_links(self, other: "RouteSignature") -> int:
        """Number of directed links shared with ``other`` (popcount of AND)."""
        return (self.mask & other.mask).bit_count()

    def shared_link_ids(self, other: "RouteSignature") -> List[int]:
        both = self.mask & other.mask
        out = []
        bit = 0
        while both:
            if both & 1:
                out.append(bit)
            both >>= 1
            bit += 1
        return out


def _signature(mesh: Mesh, nodes: Sequence[int]) -> RouteSignature:
    mask = 0
    for a, b in zip(nodes, nodes[1:]):
        mask |= 1 << mesh.link(a, b).link_id
    return RouteSignature(tuple(nodes), mask)


def xy_route(mesh: Mesh, src: int, dst: int) -> RouteSignature:
    """The static XY route the baseline hardware uses (Section 2)."""
    sx, sy = mesh.coord(src)
    dx, dy = mesh.coord(dst)
    nodes = [src]
    x, y = sx, sy
    step = 1 if dx > sx else -1
    while x != dx:
        x += step
        nodes.append(mesh.node_at(x, y))
    step = 1 if dy > sy else -1
    while y != dy:
        y += step
        nodes.append(mesh.node_at(x, y))
    return _signature(mesh, nodes)


def yx_route(mesh: Mesh, src: int, dst: int) -> RouteSignature:
    """The YX alternative (traverse Y first); minimal like XY."""
    sx, sy = mesh.coord(src)
    dx, dy = mesh.coord(dst)
    nodes = [src]
    x, y = sx, sy
    step = 1 if dy > sy else -1
    while y != dy:
        y += step
        nodes.append(mesh.node_at(x, y))
    step = 1 if dx > sx else -1
    while x != dx:
        x += step
        nodes.append(mesh.node_at(x, y))
    return _signature(mesh, nodes)


class RouteTable:
    """Memoized all-pairs XY routes, link ids, and hop counts for a mesh.

    Built once per topology (by the default engine's
    :class:`~repro.arch.machine.FusedMachineState`) so the per-access
    hot path replaces coordinate walks and per-hop ``mesh.link``
    dictionary lookups with two tuple indexings.  The tables are *pure
    memoization* of :func:`xy_route`: a hypothesis property in
    ``tests/test_differential.py`` pins that every entry equals the
    closed-form computation.

    Construction is ``O(nodes^2 * diameter)`` — about 3k link walks on
    the paper's 5x5 mesh, microseconds next to a single simulation —
    and the table is shared process-wide per mesh via
    :func:`route_table_for`.
    """

    __slots__ = ("mesh", "_routes", "_link_ids", "_hops")

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        n = mesh.num_nodes
        routes: List[RouteSignature] = []
        link_ids: List[Tuple[int, ...]] = []
        hops: List[int] = []
        for src in range(n):
            for dst in range(n):
                r = xy_route(mesh, src, dst)
                routes.append(r)
                link_ids.append(tuple(
                    mesh.link(a, b).link_id
                    for a, b in zip(r.nodes, r.nodes[1:])
                ))
                hops.append(r.hops)
        self._routes: Tuple[RouteSignature, ...] = tuple(routes)
        self._link_ids: Tuple[Tuple[int, ...], ...] = tuple(link_ids)
        self._hops: Tuple[int, ...] = tuple(hops)

    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> RouteSignature:
        """The memoized XY route (identical to ``xy_route(mesh, src, dst)``)."""
        return self._routes[src * self.mesh.num_nodes + dst]

    def link_ids(self, src: int, dst: int) -> Tuple[int, ...]:
        """Link ids of the XY route, in traversal order."""
        return self._link_ids[src * self.mesh.num_nodes + dst]

    def hops(self, src: int, dst: int) -> int:
        """Hop count of the XY route (equals ``mesh.manhattan(src, dst)``)."""
        return self._hops[src * self.mesh.num_nodes + dst]


@lru_cache(maxsize=16)
def route_table_for(mesh: Mesh) -> RouteTable:
    """Process-wide :class:`RouteTable` per mesh.

    ``mesh_for`` already canonicalizes meshes per geometry, so every
    simulator instance of one topology shares a single table — the
    memoization cost is paid once per process, not once per simulation.
    """
    return RouteTable(mesh)


def all_minimal_routes(
    mesh: Mesh, src: int, dst: int, limit: int = 64
) -> List[RouteSignature]:
    """Every minimal (Manhattan-length) route from ``src`` to ``dst``.

    The number of minimal routes is C(|dx|+|dy|, |dx|), which explodes for
    far-apart pairs on big meshes; ``limit`` caps the enumeration (the
    compiler's signature search only needs a representative sample, and
    XY/YX are always included).
    """
    sx, sy = mesh.coord(src)
    dx, dy = mesh.coord(dst)
    xstep = 0 if dx == sx else (1 if dx > sx else -1)
    ystep = 0 if dy == sy else (1 if dy > sy else -1)
    routes: List[RouteSignature] = []

    def walk(x: int, y: int, nodes: List[int]) -> None:
        if len(routes) >= limit:
            return
        if (x, y) == (dx, dy):
            routes.append(_signature(mesh, nodes))
            return
        if x != dx:
            nodes.append(mesh.node_at(x + xstep, y))
            walk(x + xstep, y, nodes)
            nodes.pop()
        if y != dy:
            nodes.append(mesh.node_at(x, y + ystep))
            walk(x, y + ystep, nodes)
            nodes.pop()

    walk(sx, sy, [src])
    return routes


def best_overlapping_routes(
    mesh: Mesh,
    src_a: int,
    dst_a: int,
    src_b: int,
    dst_b: int,
    limit: int = 64,
) -> Tuple[RouteSignature, RouteSignature, int]:
    """Pick minimal routes for two transfers maximizing common links.

    Implements the signature-selection objective of Section 5.2.1:
    maximize ``popcount(S_a & S_b)`` over minimal signatures.  Returns
    ``(route_a, route_b, common)``.  Ties favor the XY routes (the
    hardware default), so with no overlap possible the result degrades
    gracefully to baseline routing.
    """
    routes_a = all_minimal_routes(mesh, src_a, dst_a, limit)
    routes_b = all_minimal_routes(mesh, src_b, dst_b, limit)
    best = (xy_route(mesh, src_a, dst_a), xy_route(mesh, src_b, dst_b))
    best_common = best[0].common_links(best[1])
    for ra in routes_a:
        for rb in routes_b:
            c = ra.common_links(rb)
            if c > best_common:
                best, best_common = (ra, rb), c
    return best[0], best[1], best_common


def route_nodes_after(route: RouteSignature, frm: int) -> Iterator[int]:
    """Nodes of ``route`` from ``frm`` (exclusive) onward; helper for
    locating where along a path an operand could meet another."""
    seen = False
    for n in route.nodes:
        if seen:
            yield n
        elif n == frm:
            seen = True
