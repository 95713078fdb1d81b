"""Trace-level ISA shared by the compiler back end and the simulator.

A compiled program is lowered (per core) to a stream of :class:`TraceOp`
records.  Besides plain loads/stores and a fixed-cost ``work`` op (for
non-memory instructions), the stream contains two-operand ``COMPUTE``
ops — the NDC candidates — and their offloaded form, ``PRE_COMPUTE``
(the paper's new instruction, Section 2), which carries the NDC compute
package: the operand addresses, the operation class, the component mask,
and optionally compiler-chosen NoC route signatures for the operand
accesses (the Section 5.2.1 route-reselection knob).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

from repro.config import NdcComponentMask, OpClass


class OpKind(IntEnum):
    LOAD = 0
    STORE = 1
    #: z = x op y, executed conventionally unless a runtime scheme offloads it
    COMPUTE = 2
    PRE_COMPUTE = 3   #: compiler-marked offload of z = x op y
    WORK = 4          #: fixed-cost non-memory computation (ALU bubble)


@dataclass(frozen=True)
class RouteHint:
    """Compiler-selected minimal routes for the two operand accesses.

    ``x_nodes``/``y_nodes`` are node sequences of minimal routes from the
    issuing core towards each operand's L2 home bank; the simulator uses
    them instead of the default XY route when replaying the operand
    accesses tied to this package.
    """

    x_nodes: Tuple[int, ...]
    y_nodes: Tuple[int, ...]
    common_links: int = 0


@dataclass(frozen=True, slots=True)
class TraceOp:
    """One dynamic instruction in a per-core trace.

    ``pc`` identifies the static instruction (for the Last-Wait predictor
    and Fig. 5's per-PC window series).  For COMPUTE/PRE_COMPUTE,
    ``addr`` is operand *x* and ``addr2`` operand *y*; ``dest`` is the
    optional store target of the result.  ``x_reused``/``y_reused`` are
    ground-truth future-reuse flags filled by the trace generator (the
    oracle consumes them; compiled schemes must rely on their own static
    analysis, recorded in ``pred_reuse``).

    Ops are slotted (no instance dict) and frozen, so they compare and
    hash by value only: one op object may stand at many positions of a
    trace, and traces of one benchmark may share op objects
    (:func:`~repro.workloads.tracegen.compiled_trace`).
    """

    kind: OpKind
    pc: int
    addr: int = 0
    addr2: int = 0
    dest: Optional[int] = None
    op: OpClass = OpClass.ADD
    cost: int = 1                      #: WORK ops: cycles of non-memory work
    x_reused: bool = False
    y_reused: bool = False
    pred_reuse: Optional[bool] = None  #: compiler's reuse verdict (Alg. 2)
    mask: NdcComponentMask = NdcComponentMask.ALL
    route_hint: Optional[RouteHint] = None
    timeout: int = 0                   #: per-package time-out register value

    def is_ndc_candidate(self) -> bool:
        return self.kind in (OpKind.COMPUTE, OpKind.PRE_COMPUTE)


def load(pc: int, addr: int) -> TraceOp:
    return TraceOp(OpKind.LOAD, pc, addr)


def store(pc: int, addr: int) -> TraceOp:
    return TraceOp(OpKind.STORE, pc, addr)


def work(pc: int, cost: int) -> TraceOp:
    return TraceOp(OpKind.WORK, pc, cost=cost)


def compute(
    pc: int,
    x: int,
    y: int,
    op: OpClass = OpClass.ADD,
    dest: Optional[int] = None,
    x_reused: bool = False,
    y_reused: bool = False,
) -> TraceOp:
    return TraceOp(
        OpKind.COMPUTE, pc, addr=x, addr2=y, dest=dest, op=op,
        x_reused=x_reused, y_reused=y_reused,
    )


def pre_compute(
    pc: int,
    x: int,
    y: int,
    op: OpClass = OpClass.ADD,
    dest: Optional[int] = None,
    mask: NdcComponentMask = NdcComponentMask.ALL,
    route_hint: Optional[RouteHint] = None,
    timeout: int = 0,
    x_reused: bool = False,
    y_reused: bool = False,
    pred_reuse: Optional[bool] = None,
) -> TraceOp:
    return TraceOp(
        OpKind.PRE_COMPUTE, pc, addr=x, addr2=y, dest=dest, op=op,
        mask=mask, route_hint=route_hint, timeout=timeout,
        x_reused=x_reused, y_reused=y_reused, pred_reuse=pred_reuse,
    )


#: A program ready for simulation: one op stream per core (index = core id).
Trace = Tuple[Tuple[TraceOp, ...], ...]


def make_trace(streams) -> Trace:
    """Normalize a per-core iterable of op iterables into a Trace."""
    return tuple(tuple(s) for s in streams)


def trace_op_count(trace: Trace) -> int:
    return sum(len(s) for s in trace)


def trace_compute_count(trace: Trace) -> int:
    return sum(
        1 for s in trace for o in s if o.kind in (OpKind.COMPUTE, OpKind.PRE_COMPUTE)
    )
