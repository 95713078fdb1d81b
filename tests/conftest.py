"""Shared fixtures for the test suite."""

import sqlite3
from contextlib import closing

import pytest

from repro.arch.engine import REFERENCE
from repro.arch.simulator import SystemSimulator
from repro.config import ArchConfig, DEFAULT_CONFIG
from repro.core.ir import AddressSpaceAllocator
from repro.workloads.kernels import SidCounter
from repro.workloads.tracegen import clear_cache


@pytest.fixture
def cfg() -> ArchConfig:
    """The paper's Table 1 configuration."""
    return DEFAULT_CONFIG


@pytest.fixture
def small_cfg() -> ArchConfig:
    """A 3x3-mesh variant for fast structural tests."""
    return DEFAULT_CONFIG.with_mesh(3, 3)


@pytest.fixture
def alloc() -> AddressSpaceAllocator:
    return AddressSpaceAllocator(base=1 << 22)


@pytest.fixture
def sid() -> SidCounter:
    return SidCounter()


class FakeClock:
    """An advanceable clock for lease-expiry tests (inject as the
    claim queue's / server's ``clock=``) — no sleeping required."""

    def __init__(self, t: float = 1_000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()


def done_events(store) -> dict:
    """unit_id -> number of ``done`` events in a campaign store's
    journal (the double-done probe).  Opens the store read-only, so it
    is safe beside live writers; a store not created yet reads empty."""
    try:
        db = sqlite3.connect(f"file:{store}?mode=ro", uri=True)
    except sqlite3.OperationalError:
        return {}
    with closing(db):
        try:
            return dict(db.execute(
                "SELECT unit, COUNT(*) FROM journal"
                " WHERE kind='unit' AND status='done' GROUP BY unit"
            ).fetchall())
        except sqlite3.OperationalError:
            return {}


def commit_ahead_simulator(cfg: ArchConfig, scheme=None) -> SystemSimulator:
    """A reference-engine simulator on the seed's commit-ahead timelines.

    Every link, L2-port and DRAM-bank timeline appends after its last
    reservation instead of gap-filling: the over-serializing
    approximation the reserve/commit engine retired, kept only for the
    regression tests that pin the direction of that change.
    """
    sim = SystemSimulator(cfg, scheme, engine_profile=REFERENCE)
    m = sim.machine
    timelines = list(m.network.timelines()) + list(m.l2_ports)
    for mc in m.mcs:
        timelines.extend(mc.timelines())
    for tl in timelines:
        tl.gap_fill = False
    return sim


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    """Keep the tracegen cache from leaking state across tests that
    monkeypatch pass behaviour."""
    yield
    clear_cache()
