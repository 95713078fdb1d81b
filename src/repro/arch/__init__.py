"""Manycore architecture substrate.

Cycle-approximate models of the paper's target platform (Section 2 /
Table 1): a 2D-mesh NoC with per-link buffers, private L1 caches, a
static-NUCA shared L2, FR-FCFS memory controllers over banked row-buffer
DRAM, and the NDC-enabling hardware (ALUs with service tables and
time-out registers at link buffers, L2 controllers, memory controllers,
and memory banks).
"""

from repro.arch.topology import Mesh, NodeCoord
from repro.arch.routing import RouteSignature, xy_route, all_minimal_routes
from repro.arch.cache import SetAssociativeCache, CacheAccessResult
from repro.arch.engine import (
    COMMIT_AHEAD,
    ENGINE_PROFILES,
    OPTIMIZED,
    REFERENCE,
    RESERVE_COMMIT,
    CapacityTimeline,
    ReferenceCapacityTimeline,
    ResourceTimeline,
)
from repro.arch.events import EventBus, TraceWriter
from repro.arch.machine import MachineState
from repro.arch.memory import MemoryController, DramBankState
from repro.arch.noc import Network
from repro.arch.ndc_units import NdcUnit, ServiceTable, OffloadTable
from repro.arch.simulator import SystemSimulator, SimulationResult
from repro.arch.stats import SimStats, ArrivalRecord

__all__ = [
    "Mesh",
    "NodeCoord",
    "RouteSignature",
    "xy_route",
    "all_minimal_routes",
    "SetAssociativeCache",
    "CacheAccessResult",
    "COMMIT_AHEAD",
    "ENGINE_PROFILES",
    "OPTIMIZED",
    "REFERENCE",
    "RESERVE_COMMIT",
    "CapacityTimeline",
    "ReferenceCapacityTimeline",
    "ResourceTimeline",
    "EventBus",
    "TraceWriter",
    "MachineState",
    "MemoryController",
    "DramBankState",
    "Network",
    "NdcUnit",
    "ServiceTable",
    "OffloadTable",
    "SystemSimulator",
    "SimulationResult",
    "SimStats",
    "ArrivalRecord",
]
