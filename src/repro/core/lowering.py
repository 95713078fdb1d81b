"""Lowering: IR programs -> per-core instruction traces.

Parallelization follows the paper's multithreaded execution model: the
outermost loop of every nest is block-partitioned across the cores
(one thread per core, Table 1), and the nests of a program execute in
sequence, SPMD-style.

Each statement instance lowers to trace ops:

* plain reads/writes -> ``LOAD``/``STORE``;
* ``work`` cycles -> a ``WORK`` op;
* a compute without an offload plan -> ``COMPUTE`` (operand fetch +
  ALU on the core);
* a compute with an :class:`~repro.core.algorithm1.OffloadPlan` ->
  ``PRE_COMPUTE`` carrying the component mask, the time-out register
  value, and (for network-station plans) a per-instance route hint
  maximizing link overlap for that instance's actual operand homes.

A nest lowers in bulk: its scheduled points are one int64 array, each
reference computes all of its addresses at once
(:meth:`~repro.core.ir.ArrayRef.addresses`), and every instance of a
statement's ``WORK`` op is one shared (frozen) object.  Equal
addresses within one trace are one int object.

Computes wait as plain records until a backward pass over each core's
stream has found their ground-truth future-reuse flags
(``x_reused``/``y_reused``, which the oracle scheme consumes), so each
op is built once.  Any later access by the same core to the same L1
line counts, mirroring the paper's footnote that the reuse need not be
within a bounded number of cycles.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.topology import mesh_for
from repro.config import ArchConfig, NdcComponentMask
from repro.core.algorithm1 import OffloadPlan
from repro.core.ir import LoopNest, Program, Ref, Statement
from repro.core.routing_opt import plan_pair
from repro.isa import OpKind, RouteHint, Trace, TraceOp, make_trace

#: sub-pc encoding: pc = sid * _PC_STRIDE + ref slot
_PC_STRIDE = 16
_COMPUTE_SLOT = 15


def pc_of(sid: int, slot: int = _COMPUTE_SLOT) -> int:
    """Static-instruction id used in traces (per statement, per ref slot)."""
    return sid * _PC_STRIDE + slot


def _partition(lower: int, upper: int, cores: int) -> List[Tuple[int, int]]:
    """Block-partition the inclusive range among ``cores`` (empty -> (1,0))."""
    total = upper - lower + 1
    base, rem = divmod(total, cores)
    out = []
    start = lower
    for c in range(cores):
        size = base + (1 if c < rem else 0)
        out.append((start, start + size - 1))
        start += size
    return out


def lower_program(
    program: Program,
    cfg: ArchConfig,
    plans: Optional[Dict[int, OffloadPlan]] = None,
    cores: Optional[int] = None,
) -> Trace:
    """Lower ``program`` onto ``cores`` cores (default: the whole mesh)."""
    mesh = mesh_for(cfg.noc.width, cfg.noc.height)
    n_cores = cores or mesh.num_nodes
    if n_cores > mesh.num_nodes:
        raise ValueError("more cores requested than mesh nodes")
    plans = plans or {}
    streams: List[list] = [[] for _ in range(n_cores)]
    addrs: Dict[int, int] = {}
    for nest in program.nests:
        _lower_nest(cfg, nest, plans, streams, addrs)
    line = cfg.l1.line_bytes
    return make_trace(_with_reuse_flags(s, line) for s in streams)


def _lower_nest(
    cfg: ArchConfig,
    nest: LoopNest,
    plans: Dict[int, OffloadPlan],
    streams: List[list],
    addrs: Dict[int, int],
) -> None:
    """Append one nest's ops to every core's stream (block-partitioned)."""
    pts = nest.scheduled_points()
    blocks = _partition(nest.lower[0], nest.upper[0], len(streams))
    starts = np.array([lo for lo, _ in blocks], dtype=np.int64)
    owner = np.searchsorted(starts, pts[:, 0], side="right") - 1
    # Group the points by core; the stable sort keeps each core's
    # share in execution order.
    by_core = np.argsort(owner, kind="stable")
    pts, owner = pts[by_core], owner[by_core]
    shifts = dict(nest.stmt_shifts)
    columns = [
        _statement_ops(cfg, nest, st, pts, owner, shifts.get(st.sid),
                       plans.get(st.sid), addrs)
        for st in nest.body
    ]
    rows = list(zip(*columns))  # per point: each statement's op tuple
    ends = np.cumsum(np.bincount(owner, minlength=len(streams))).tolist()
    lo = 0
    for stream, hi in zip(streams, ends):
        stream.extend(chain.from_iterable(chain.from_iterable(rows[lo:hi])))
        lo = hi


def _statement_ops(
    cfg: ArchConfig,
    nest: LoopNest,
    st: Statement,
    pts: np.ndarray,
    owner: np.ndarray,
    delta: Optional[Tuple[int, ...]],
    plan: Optional[OffloadPlan],
    addrs: Dict[int, int],
) -> list:
    """One statement's ops at every point, as one tuple per point (empty
    where a shifted instance falls outside the space)."""
    n = len(pts)
    if delta is not None:
        # Point I runs the statement's instance I + Δ, truncated like
        # ``zip`` truncates when Δ and the depth differ in length.
        d = min(pts.shape[1], len(delta))
        pts = pts[:, :d] + np.array(delta[:d], dtype=np.int64)
        inside = np.all(
            (pts >= np.array(nest.lower[:d])) & (pts <= np.array(nest.upper[:d])),
            axis=1,
        )
        kept = np.flatnonzero(inside)
        pts, owner = pts[kept], owner[kept]
    m = len(pts)
    cols: List[list] = []
    if st.work > 0:
        cols.append([TraceOp(OpKind.WORK, pc_of(st.sid, 14), cost=st.work)] * m)
    for k, r in enumerate(st.reads):
        pc = pc_of(st.sid, k)
        cols.append([TraceOp(OpKind.LOAD, pc, a)
                     for a in _addresses(r, pts, addrs)])
    if st.compute is not None:
        cols.append(_compute_records(cfg, st, pts, owner, plan, addrs))
    for k, w in enumerate(st.writes):
        pc = pc_of(st.sid, 8 + k)
        cols.append([TraceOp(OpKind.STORE, pc, a)
                     for a in _addresses(w, pts, addrs)])
    ops = list(zip(*cols)) if cols else [()] * m
    if delta is None:
        return ops
    out: list = [()] * n
    for i, inst in zip(kept.tolist(), ops):
        out[i] = inst
    return out


def _addresses(ref: Ref, pts: np.ndarray, addrs: Dict[int, int]) -> List[int]:
    """``ref``'s address at every point, each value as the one int
    object ``addrs`` keeps for it (the first one seen)."""
    values = ref.addresses(pts)
    return list(map(addrs.setdefault, values, values))


def _compute_records(
    cfg: ArchConfig,
    st: Statement,
    pts: np.ndarray,
    owner: np.ndarray,
    plan: Optional[OffloadPlan],
    addrs: Dict[int, int],
) -> List[tuple]:
    """The statement's compute at every point, as ``TraceOp`` argument
    tuples short of the reuse flags (see :func:`_with_reuse_flags`)."""
    spec = st.compute
    assert spec is not None
    ax = _addresses(spec.x, pts, addrs)
    ay = _addresses(spec.y, pts, addrs)
    dest = (_addresses(spec.dest, pts, addrs) if spec.dest is not None
            else repeat(None))
    pc = pc_of(st.sid)
    if plan is None:
        kind, pred, mask, timeout = OpKind.COMPUTE, None, NdcComponentMask.ALL, 0
        hints = repeat(None)
    else:
        kind, pred, mask, timeout = (
            OpKind.PRE_COMPUTE, False, plan.mask, plan.timeout
        )
        hints = (
            _route_hints(cfg, owner, ax, ay)
            if plan.use_route_hints else repeat(None)
        )
    return [
        (kind, pc, x, y, d, spec.op, pred, mask, h, timeout)
        for x, y, d, h in zip(ax, ay, dest, hints)
    ]


def _route_hints(
    cfg: ArchConfig,
    owner: np.ndarray,
    ax: List[int],
    ay: List[int],
) -> List[Optional[RouteHint]]:
    """Per-instance route hints for the instance's actual operand homes
    (none when a home is the issuing core or the routes share no link)."""
    home = cfg.l2_home_node
    mesh = mesh_for(cfg.noc.width, cfg.noc.height)
    hints: List[Optional[RouteHint]] = []
    for core, x, y in zip(owner.tolist(), ax, ay):
        hx, hy = home(x), home(y)
        if hx == core or hy == core:
            hints.append(None)
            continue
        plan = plan_pair(mesh, core, hx, hy)
        hints.append(plan.hint if plan.common_links else None)
    return hints


def _with_reuse_flags(stream: list, line: int) -> List[TraceOp]:
    """Build each compute record of one core's stream into its
    ``TraceOp``, with ground-truth future-reuse flags (backward scan).

    An operand counts as reused when the same core touches its L1 line
    anywhere later in its stream — by any op, including other computes —
    mirroring the paper's footnote that the reuse need not occur within
    a bounded number of cycles.  Line granularity matters: offloading a
    compute strands the operand *line* outside the L1, so spatial
    neighbours count as reuse too.  A compute's own accesses are not
    later than itself.
    """
    later = set()
    out: List[TraceOp] = []
    for op in reversed(stream):
        if type(op) is tuple:
            kind, pc, x, y, dest, opc, pred, mask, hint, timeout = op
            lx, ly = x // line, y // line
            op = TraceOp(kind, pc, x, y, dest, opc, 1, lx in later,
                         ly in later, pred, mask, hint, timeout)
            later.add(lx)
            later.add(ly)
            if dest is not None:
                later.add(dest // line)
        elif op.kind is not OpKind.WORK:
            later.add(op.addr // line)
        out.append(op)
    out.reverse()
    return out
