"""NoC model: traversal timing, serialization, link contention."""

import pytest

from repro.arch.noc import Network
from repro.arch.routing import xy_route
from repro.arch.topology import Mesh


@pytest.fixture
def net(cfg):
    return Network(Mesh(cfg.noc.width, cfg.noc.height), cfg.noc)


class TestSerialization:
    def test_one_flit_minimum(self, net):
        assert net.serialization_cycles(1) == 1
        assert net.serialization_cycles(16) == 1

    def test_flits_round_up(self, net):
        assert net.serialization_cycles(17) == 2
        assert net.serialization_cycles(64) == 4
        assert net.serialization_cycles(256) == 16


class TestTraversal:
    def test_arrival_monotonic_along_route(self, net):
        r = xy_route(net.mesh, 0, 24)
        t = net.traverse(r, 0, 8)
        assert list(t.node_times) == sorted(t.node_times)
        assert t.node_times[0] == 0

    def test_zero_load_latency_matches_uncontended(self, net, cfg):
        r = xy_route(net.mesh, 0, 9)
        t = net.traverse(r, 0, 64)
        assert t.completion == net.zero_load_latency(r.hops, 64)

    def test_larger_payload_slower(self, net):
        r1 = xy_route(net.mesh, 0, 12)
        r2 = xy_route(net.mesh, 24, 12)
        small = net.traverse(r1, 0, 8).completion
        big = net.traverse(r2, 0, 256).completion
        assert big > small

    def test_arrival_at(self, net):
        r = xy_route(net.mesh, 0, 4)
        t = net.traverse(r, 0, 8)
        assert t.arrival_at(2) == t.node_times[2]
        with pytest.raises(ValueError):
            t.arrival_at(17)

    def test_geometry_mismatch_rejected(self, cfg):
        with pytest.raises(ValueError):
            Network(Mesh(4, 4), cfg.noc)


class TestContention:
    def test_back_to_back_transfers_queue(self, net):
        r = xy_route(net.mesh, 0, 4)
        a = net.traverse(r, 0, 256)  # 16 flits hog the links
        b = net.traverse(r, 0, 256)
        assert b.completion > a.completion
        assert net.stats.total_queue_cycles > 0

    def test_disjoint_routes_do_not_interact(self, net):
        ra = xy_route(net.mesh, 0, 4)
        rb = xy_route(net.mesh, 20, 24)
        a = net.traverse(ra, 0, 256)
        b = net.traverse(rb, 0, 256)
        assert a.completion == b.completion

    def test_transfer_counted(self, net):
        net.traverse(xy_route(net.mesh, 0, 1), 0, 8)
        assert net.stats.transfers == 1
        assert net.stats.flit_hops >= 1
