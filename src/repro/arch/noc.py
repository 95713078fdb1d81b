"""On-chip network model with per-link contention.

Transfers follow explicit routes (XY by default; the compiler may select
alternate minimal routes per Section 5.2.1).  Each directed link is a
:class:`~repro.arch.engine.ResourceTimeline`: a flit group reserves the
link for a serialization time derived from the payload size and link
width.  Traversal returns the arrival time at *every* node along the
route, because NDC-at-router needs to know when an operand is present
in each intermediate link buffer.

A transfer claims the *earliest gap* that fits on each link — so
traffic committed deep into the future by a long op no longer blocks
temporally-earlier transfers (the seed's commit-ahead
over-serialization, which survives only as a test-only timeline mode).

This is a queueing approximation of a wormhole network: it models the
first-order effects the paper's metrics depend on (hop latency, hot-link
queueing, payload serialization) without per-flit simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.engine import ResourceTimeline
from repro.arch.events import EventBus, LinkStall
from repro.arch.routing import RouteSignature
from repro.arch.topology import Mesh
from repro.config import NocConfig


@dataclass
class NocStats:
    transfers: int = 0
    flit_hops: int = 0
    total_queue_cycles: int = 0


@dataclass(frozen=True)
class Traversal:
    """Result of pushing a payload along a route."""

    route: RouteSignature
    #: arrival cycle at each node of the route (same length as route.nodes)
    node_times: Tuple[int, ...]

    @property
    def completion(self) -> int:
        return self.node_times[-1]

    def arrival_at(self, node: int) -> int:
        """Arrival cycle at ``node``; raises if the route misses it."""
        try:
            return self.node_times[self.route.nodes.index(node)]
        except ValueError:
            raise ValueError(f"route does not visit node {node}") from None


class Network:
    """Mesh NoC with a reserve/commit timeline per directed link."""

    def __init__(
        self,
        mesh: Mesh,
        cfg: NocConfig,
        bus: Optional[EventBus] = None,
    ):
        if mesh.width != cfg.width or mesh.height != cfg.height:
            raise ValueError("mesh geometry disagrees with NocConfig")
        self.mesh = mesh
        self.cfg = cfg
        self.bus = bus
        self._links: List[ResourceTimeline] = [
            ResourceTimeline(f"link:{i}") for i in range(mesh.num_links)
        ]
        #: per-hop pipeline constants, hoisted off the config dataclass
        #: for the per-flit-group inner loop
        self._router_latency = cfg.router_latency
        self._hop_tail = cfg.link_latency - 1
        self.stats = NocStats()

    # ------------------------------------------------------------------
    def serialization_cycles(self, payload_bytes: int) -> int:
        """Cycles to push ``payload_bytes`` through one link."""
        flits = max(1, -(-payload_bytes // self.cfg.link_bytes))
        return flits

    def traverse(
        self,
        route: RouteSignature,
        start: int,
        payload_bytes: int,
        commit: bool = True,
        link_ids: Optional[Tuple[int, ...]] = None,
    ) -> Traversal:
        """Send a payload along ``route`` beginning at cycle ``start``.

        Returns per-node arrival times.  Each hop costs the router
        pipeline plus link latency plus serialization, plus any queueing
        when the link has no free slot at the departure cycle.  With
        ``commit=False`` the same contention-aware timing is computed
        through the reserve phase only (a what-if estimate — no link is
        actually claimed).  ``link_ids`` optionally supplies the route's
        memoized link ids (the default engine's
        :class:`~repro.arch.routing.RouteTable`), skipping the per-hop
        adjacency lookups.
        """
        ser = self.serialization_cycles(payload_bytes)
        bus = self.bus
        t = start
        times = [t]
        nodes = route.nodes
        if link_ids is None:
            link_ids = tuple(
                self.mesh.link(a, b).link_id
                for a, b in zip(nodes, nodes[1:])
            )
        links = self._links
        stats = self.stats
        router_latency = self._router_latency
        tail = self._hop_tail + ser
        for link_id in link_ids:
            timeline = links[link_id]
            want = t + router_latency
            if commit:
                depart = timeline.reserve(want, ser)
                queue = depart - want
                stats.total_queue_cycles += queue
                stats.flit_hops += ser
                if queue > 0 and bus is not None:
                    bus.emit(LinkStall(cycle=want, link=link_id,
                                       stall=queue))
            else:
                depart = timeline.earliest_free(want, ser)
            t = depart + tail
            times.append(t)
        if commit:
            stats.transfers += 1
        return Traversal(route, tuple(times))

    def zero_load_latency(self, hops: int, payload_bytes: int) -> int:
        """Latency of an uncontended ``hops``-hop transfer."""
        if hops == 0:
            return 0
        ser = self.serialization_cycles(payload_bytes)
        return hops * (self.cfg.router_latency + self.cfg.link_latency + ser - 1)

    def link_utilization(self) -> Dict[int, int]:
        """Busy-until clock per link (diagnostics)."""
        return {
            i: tl.free_at for i, tl in enumerate(self._links) if tl.free_at > 0
        }

    def timelines(self) -> List[ResourceTimeline]:
        return self._links
