"""The per-iteration lowering, kept as the oracle for the bulk one.

``reference_lower_program`` walks every scheduled iteration in Python,
asks each reference for its address one point at a time, builds every
op as it goes and rebuilds a compute when the backward reuse scan
changes its flags.  :func:`repro.core.lowering.lower_program` must
return a trace ``==`` to this one for every program; the schedule is
derived here independently of ``LoopNest.scheduled_points``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.topology import Mesh, mesh_for
from repro.config import ArchConfig
from repro.core.algorithm1 import OffloadPlan
from repro.core.ir import LoopNest, Program, Statement
from repro.core.lowering import _partition, pc_of
from repro.core.routing_opt import plan_pair
from repro.isa import OpKind, RouteHint, Trace, TraceOp, make_trace


def _scheduled_iterations(nest: LoopNest) -> List[Tuple[int, ...]]:
    ranges = [range(l, u + 1) for l, u in zip(nest.lower, nest.upper)]
    pts = [tuple(i) for i in itertools.product(*ranges)]
    if nest.transform is None:
        return pts
    T = np.asarray(nest.transform, dtype=np.int64)
    keys = np.asarray(pts, dtype=np.int64) @ T.T
    order = np.lexsort(
        tuple(keys[:, k] for k in reversed(range(keys.shape[1])))
    )
    return [pts[i] for i in order]


class _Emitter:
    """Per-core op-stream builder."""

    def __init__(
        self,
        cfg: ArchConfig,
        core: int,
        plans: Dict[int, OffloadPlan],
        route_mesh: Optional[Mesh],
    ):
        self.cfg = cfg
        self.core = core
        self.plans = plans
        self.routes = route_mesh
        self.ops: List[TraceOp] = []

    def emit_statement(self, st: Statement, iteration: Tuple[int, ...]) -> None:
        if st.work > 0:
            self.ops.append(TraceOp(OpKind.WORK, pc_of(st.sid, 14), cost=st.work))
        for k, r in enumerate(st.reads):
            self.ops.append(
                TraceOp(OpKind.LOAD, pc_of(st.sid, k), addr=r.address(iteration))
            )
        if st.compute is not None:
            self._emit_compute(st, iteration)
        for k, w in enumerate(st.writes):
            self.ops.append(
                TraceOp(
                    OpKind.STORE, pc_of(st.sid, 8 + k), addr=w.address(iteration)
                )
            )

    def _emit_compute(self, st: Statement, iteration: Tuple[int, ...]) -> None:
        spec = st.compute
        assert spec is not None
        ax = spec.x.address(iteration)
        ay = spec.y.address(iteration)
        dest = spec.dest.address(iteration) if spec.dest is not None else None
        plan = self.plans.get(st.sid)
        pc = pc_of(st.sid)
        if plan is None:
            self.ops.append(
                TraceOp(
                    OpKind.COMPUTE, pc, addr=ax, addr2=ay, dest=dest, op=spec.op
                )
            )
            return
        hint = self._route_hint(ax, ay) if plan.use_route_hints else None
        self.ops.append(
            TraceOp(
                OpKind.PRE_COMPUTE,
                pc,
                addr=ax,
                addr2=ay,
                dest=dest,
                op=spec.op,
                mask=plan.mask,
                route_hint=hint,
                timeout=plan.timeout,
                pred_reuse=False,
            )
        )

    def _route_hint(self, ax: int, ay: int) -> Optional[RouteHint]:
        if self.routes is None:
            return None
        hx = self.cfg.l2_home_node(ax)
        hy = self.cfg.l2_home_node(ay)
        if hx == self.core or hy == self.core:
            return None
        plan = plan_pair(self.routes, self.core, hx, hy)
        if plan.common_links == 0:
            return None
        return plan.hint


def lower_nest(
    cfg: ArchConfig,
    nest: LoopNest,
    cores: int,
    plans: Dict[int, OffloadPlan],
    emitters: Sequence[_Emitter],
) -> None:
    """Emit one nest into every core's stream (block-partitioned)."""
    shifts = {sid: delta for sid, delta in nest.stmt_shifts}
    blocks = _partition(nest.lower[0], nest.upper[0], cores)
    lower, upper = nest.lower, nest.upper
    for it in _scheduled_iterations(nest):
        owner = _owner_of(it[0], blocks)
        if owner is None:
            continue
        em = emitters[owner]
        for st in nest.body:
            delta = shifts.get(st.sid)
            inst = it if delta is None else tuple(a + b for a, b in zip(it, delta))
            if delta is not None and not all(
                l <= v <= u for v, l, u in zip(inst, lower, upper)
            ):
                continue  # shifted instance falls outside the space
            em.emit_statement(st, inst)


def _owner_of(outer: int, blocks: List[Tuple[int, int]]) -> Optional[int]:
    for c, (lo, hi) in enumerate(blocks):
        if lo <= outer <= hi:
            return c
    return None


def reference_lower_program(
    program: Program,
    cfg: ArchConfig,
    plans: Optional[Dict[int, OffloadPlan]] = None,
    cores: Optional[int] = None,
) -> Trace:
    """``lower_program``, one iteration and one op at a time."""
    mesh = mesh_for(cfg.noc.width, cfg.noc.height)
    n_cores = cores or mesh.num_nodes
    if n_cores > mesh.num_nodes:
        raise ValueError("more cores requested than mesh nodes")
    plans = plans or {}
    needs_routes = any(p.use_route_hints for p in plans.values())
    route_mesh = mesh if needs_routes else None
    emitters = [_Emitter(cfg, c, plans, route_mesh) for c in range(n_cores)]
    for nest in program.nests:
        lower_nest(cfg, nest, n_cores, plans, emitters)
    streams = [annotate_reuse(cfg, em.ops) for em in emitters]
    return make_trace(streams)


def annotate_reuse(cfg: ArchConfig, ops: List[TraceOp]) -> List[TraceOp]:
    """Fill ground-truth future-reuse flags on compute ops (backward scan)."""
    line = cfg.l1.line_bytes
    #: line -> set of static pcs that touch it later in the stream
    future: Dict[int, set] = {}
    out: List[Optional[TraceOp]] = [None] * len(ops)

    def touches(op: TraceOp) -> List[int]:
        t = []
        if op.kind in (OpKind.LOAD, OpKind.STORE):
            t.append(op.addr // line)
        elif op.kind in (OpKind.COMPUTE, OpKind.PRE_COMPUTE):
            t.append(op.addr // line)
            t.append(op.addr2 // line)
            if op.dest is not None:
                t.append(op.dest // line)
        return t

    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op.kind in (OpKind.COMPUTE, OpKind.PRE_COMPUTE):
            xr = bool(future.get(op.addr // line))
            yr = bool(future.get(op.addr2 // line))
            if xr != op.x_reused or yr != op.y_reused:
                op = TraceOp(
                    op.kind, op.pc, op.addr, op.addr2, op.dest, op.op, op.cost,
                    xr, yr, op.pred_reuse, op.mask, op.route_hint, op.timeout,
                )
        out[i] = op
        for ln in touches(op):
            future.setdefault(ln, set()).add(op.pc)
    return [o for o in out if o is not None]
