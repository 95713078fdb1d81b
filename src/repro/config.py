"""Machine and NDC configuration.

This module encodes Table 1 of the paper ("The simulated configuration")
as a set of frozen dataclasses, plus the NDC-specific knobs the paper's
architecture exposes (control register masking components, time-out
registers, service-table capacity, offload-table capacity).

All latencies are in core cycles.  The defaults reproduce the paper's
5x5-mesh configuration; the sensitivity experiments (Fig. 17) construct
variants via :func:`ArchConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import IntEnum, IntFlag
from typing import Tuple


class NdcLocation(IntEnum):
    """The four hardware stations the paper considers for near-data compute.

    The integer order is also the paper's reporting order in the
    breakdown figures (cache, network, MC, memory).
    """

    CACHE = 0      #: L2 cache controller / bank ("b" in Fig. 1)
    NETWORK = 1    #: link buffer / router ALU ("a" in Fig. 1)
    MEMCTRL = 2    #: memory-controller queue ("c" in Fig. 1)
    MEMORY = 3     #: DRAM bank itself ("d" in Fig. 1)

    @property
    def short_name(self) -> str:
        return _LOC_SHORT[self]


_LOC_SHORT = {
    NdcLocation.CACHE: "cache",
    NdcLocation.NETWORK: "network",
    NdcLocation.MEMCTRL: "MC",
    NdcLocation.MEMORY: "memory",
}


class NdcComponentMask(IntFlag):
    """Control-register mask ("e" in Fig. 1) selecting enabled NDC stations."""

    NONE = 0
    CACHE = 1 << NdcLocation.CACHE
    NETWORK = 1 << NdcLocation.NETWORK
    MEMCTRL = 1 << NdcLocation.MEMCTRL
    MEMORY = 1 << NdcLocation.MEMORY
    ALL = CACHE | NETWORK | MEMCTRL | MEMORY

    @classmethod
    def only(cls, loc: NdcLocation) -> "NdcComponentMask":
        """Mask enabling a single station (used by the Fig. 14 experiment)."""
        return cls(1 << loc)

    def allows(self, loc: NdcLocation) -> bool:
        return bool(self & (1 << loc))


class OpClass(IntEnum):
    """Classes of ALU operations that an NDC station may implement.

    The default configuration permits *all* arithmetic and logic
    operations near data (Table 1, "Types of offloading"); the Fig. 17
    sensitivity experiment restricts stations to ADD/SUB only.
    """

    ADD = 0
    SUB = 1
    MUL = 2
    DIV = 3
    LOGIC = 4  # and/or/xor/shift family

    @property
    def is_addsub(self) -> bool:
        return self in (OpClass.ADD, OpClass.SUB)


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache level."""

    size_bytes: int
    line_bytes: int
    ways: int
    access_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*ways={self.line_bytes * self.ways}"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class NocConfig:
    """2D-mesh on-chip network parameters."""

    width: int = 5
    height: int = 5
    link_bytes: int = 16
    router_latency: int = 3     #: per-hop router pipeline (Table 1)
    link_latency: int = 1       #: per-hop wire traversal
    buffer_flits: int = 8       #: per-link buffer capacity, in flits
    #: how far apart (cycles) two payloads may pass a link and still be
    #: co-resident in its buffer for an in-router compute
    meet_window: int = 16

    @property
    def num_nodes(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class DramConfig:
    """DRAM device timing (Micron DDR2-800-like, Table 1)."""

    banks_per_controller: int = 4
    rows_per_bank: int = 16384
    row_buffer_bytes: int = 4096
    t_row_hit: int = 18          #: CAS on an open row
    t_row_miss: int = 36         #: ACT + CAS on an idle bank
    t_row_conflict: int = 54     #: PRE + ACT + CAS on a conflicting open row
    active_row_buffers: int = 4
    #: cycles to move one operand across the DRAM data bus to the
    #: controller; in-bank NDC avoids this per-operand cost (only the
    #: result crosses), which is what makes the memory-bank station the
    #: cheapest for same-bank pairs.
    bus_cycles: int = 6


@dataclass(frozen=True)
class MemoryConfig:
    """Memory-system organization."""

    num_controllers: int = 4
    interleave_bytes: int = 4096   #: MC interleaving granularity (= page size)
    queue_depth: int = 32
    scheduling: str = "FR-FCFS"
    dram: DramConfig = field(default_factory=DramConfig)


@dataclass(frozen=True)
class NdcConfig:
    """NDC-enabling hardware parameters (Section 2 / Fig. 1)."""

    component_mask: NdcComponentMask = NdcComponentMask.ALL
    service_table_entries: int = 16   #: per NDC ALU
    offload_table_entries: int = 32   #: per LD/ST unit
    timeout_cycles: int = 0           #: 0 = disabled (wait forever)
    allowed_ops: Tuple[OpClass, ...] = (
        OpClass.ADD, OpClass.SUB, OpClass.MUL, OpClass.DIV, OpClass.LOGIC,
    )
    #: structural bound on any service-table wait: beyond this the
    #: hardware forces the computation back to the core regardless of
    #: the scheme's wishes (offload/service tables cannot be held
    #: indefinitely)
    max_wait_cycles: int = 150
    #: extra cycles to form and inject an NDC compute package
    package_overhead: int = 2
    #: cycles to deliver the CPU-feed completion signal / result word
    result_forward_overhead: int = 1

    def op_allowed(self, op: OpClass) -> bool:
        return op in self.allowed_ops


@dataclass(frozen=True)
class ArchConfig:
    """Complete machine description (Table 1 defaults).

    The architecture description consumed by the compiler passes
    (Section 5.1: "number of nodes, cores per node, target NDC locations,
    types of computations that can be performed in NDC locations").
    """

    noc: NocConfig = field(default_factory=NocConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, line_bytes=64, ways=2, access_latency=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=512 * 1024, line_bytes=256, ways=64, access_latency=20
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    ndc: NdcConfig = field(default_factory=NdcConfig)
    issue_width: int = 2
    threads_per_core: int = 1
    #: Delayed-writeback model: a stored line stays dirty in the writer's
    #: L1 and reaches its home L2 bank only after a lag of
    #: ``base + hash(line) % spread`` cycles (standing in for
    #: eviction-driven writeback).  Until then a remote reader snoops the
    #: owner, and an NDC package waiting for the operand at the home bank
    #: waits for the writeback — the multithreaded source of the paper's
    #: long arrival windows.
    writeback_lag_base: int = 150
    writeback_lag_spread: int = 600

    # ------------------------------------------------------------------
    # Address mapping (static NUCA, Section 2)
    # ------------------------------------------------------------------
    def l2_home_node(self, addr: int) -> int:
        """Home L2 bank of ``addr``: cache-line interleaved across nodes."""
        return (addr // self.l2.line_bytes) % self.noc.num_nodes

    def memory_controller(self, addr: int) -> int:
        """Owning MC of ``addr``: page-interleaved across controllers."""
        return (addr // self.memory.interleave_bytes) % self.memory.num_controllers

    def dram_bank(self, addr: int) -> int:
        """Bank index *within* the owning controller."""
        page = addr // self.memory.interleave_bytes
        per_mc = page // self.memory.num_controllers
        return per_mc % self.memory.dram.banks_per_controller

    def dram_row(self, addr: int) -> int:
        page = addr // self.memory.interleave_bytes
        chan_page = page // (
            self.memory.num_controllers * self.memory.dram.banks_per_controller
        )
        return chan_page % self.memory.dram.rows_per_bank

    # ------------------------------------------------------------------
    def replace(self, **changes) -> "ArchConfig":
        """Functional update (sensitivity sweeps build variants this way)."""
        return dataclasses.replace(self, **changes)

    def with_mesh(self, width: int, height: int) -> "ArchConfig":
        noc = dataclasses.replace(self.noc, width=width, height=height)
        return self.replace(noc=noc)

    def with_l2_size(self, size_bytes: int) -> "ArchConfig":
        return self.replace(l2=dataclasses.replace(self.l2, size_bytes=size_bytes))

    def with_ndc(self, **changes) -> "ArchConfig":
        return self.replace(ndc=dataclasses.replace(self.ndc, **changes))


#: The paper's default machine (Table 1).
DEFAULT_CONFIG = ArchConfig()


def render_table1(cfg: ArchConfig = DEFAULT_CONFIG) -> str:
    """Render the configuration in the shape of the paper's Table 1."""
    noc, mem = cfg.noc, cfg.memory
    rows = [
        ("Cores", f"two-issue OoO model, {noc.num_nodes} nodes, "
                  f"{cfg.threads_per_core} thread/core"),
        ("L1", f"{cfg.l1.size_bytes // 1024} KB/node, {cfg.l1.line_bytes} B lines, "
               f"{cfg.l1.ways} ways, {cfg.l1.access_latency}-cycle access"),
        ("L2", f"{cfg.l2.size_bytes // 1024} KB/node, {cfg.l2.line_bytes} B lines, "
               f"{cfg.l2.ways} ways, line-interleaved, "
               f"{cfg.l2.access_latency}-cycle access"),
        ("NoC", f"{noc.width}x{noc.height} 2D mesh, {noc.link_bytes} B links, "
                f"{noc.router_latency}-cycle pipeline, XY routing"),
        ("Memory", f"{mem.num_controllers} MCs, {mem.interleave_bytes} B interleave, "
                   f"{mem.scheduling}, {mem.dram.banks_per_controller} banks/MC, "
                   f"{mem.dram.row_buffer_bytes} B row buffer"),
        ("Offloading", "all arithmetic/logic ops"
         if len(cfg.ndc.allowed_ops) == len(OpClass) else
         "+/- only" if all(o.is_addsub for o in cfg.ndc.allowed_ops) else
         ",".join(o.name for o in cfg.ndc.allowed_ops)),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
