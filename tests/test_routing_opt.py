"""Compile-time route-signature selection."""

import pytest

from repro.arch.topology import mesh_for
from repro.config import DEFAULT_CONFIG
from repro.core.ir import Array, ComputeSpec, LoopNest, Statement, ref
from repro.core.routing_opt import (
    plan_pair,
    sample_homes,
    select_route_hint,
)


@pytest.fixture
def mesh():
    return mesh_for(5, 5)


class TestPlanPair:
    def test_gain_non_negative(self, mesh):
        for (hx, hy, core) in [(0, 4, 12), (2, 22, 13), (0, 24, 12)]:
            plan = plan_pair(mesh, core, hx, hy)
            assert plan.gained_links >= 0
            assert plan.common_links >= plan.baseline_common

    def test_hint_routes_are_minimal(self, mesh):
        plan = plan_pair(mesh, 12, 0, 4)
        assert len(plan.hint.x_nodes) - 1 == mesh.manhattan(0, 12)
        assert len(plan.hint.y_nodes) - 1 == mesh.manhattan(4, 12)

    def test_selector_caches(self, mesh):
        """Plans are memoized process-wide, so every pass and every
        trace shares one plan per (mesh, core, home pair)."""
        a = plan_pair(mesh, 12, 0, 4)
        b = plan_pair(mesh, 12, 0, 4)
        assert a is b


class TestSampling:
    def make_nest(self):
        A = Array("A", (4096,), base=1 << 20, element_size=64)
        B = Array("B", (4096,), base=1 << 21, element_size=64)
        c = Statement(0, compute=ComputeSpec(x=ref(A, (1, 0)), y=ref(B, (1, 0))))
        return LoopNest("n", (0,), (255,), (c,)), c

    def test_sample_homes_in_range(self):
        nest, c = self.make_nest()
        pairs = sample_homes(DEFAULT_CONFIG, nest, c.compute.x, c.compute.y)
        assert pairs
        for hx, hy in pairs:
            assert 0 <= hx < 25 and 0 <= hy < 25

    def test_select_route_hint_returns_fraction(self, mesh):
        nest, c = self.make_nest()
        hint, frac = select_route_hint(DEFAULT_CONFIG, mesh, nest, c, core=12)
        assert 0.0 <= frac <= 1.0

    def test_hint_endpoints(self, mesh):
        nest, c = self.make_nest()
        hint, frac = select_route_hint(DEFAULT_CONFIG, mesh, nest, c, core=12)
        if hint is not None:
            assert hint.x_nodes[-1] == 12
            assert hint.y_nodes[-1] == 12
