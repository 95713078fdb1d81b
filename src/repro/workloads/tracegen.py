"""Trace generation: benchmark name + compilation variant -> trace.

Variants:

* ``"original"`` — the program lowered as-is (the paper's baseline and
  the input to the Section 4 quantification runs).
* ``"alg1"`` / ``"alg2"`` — compiled by Algorithm 1 / Algorithm 2.
* ``"layout_alg1"`` — the data-layout optimizer (the paper's postponed
  Section 5.2.1 extension) followed by Algorithm 1; used by the layout
  ablation driver.
* ``"coda"`` — the CODA-style co-location placement pass (beyond-paper;
  own ``placement_*`` knobs) followed by Algorithm 2: move the data,
  then schedule iterations over the co-located layout.
* keyword overrides forward to the pass constructor, so the Fig. 14
  per-component masks, the route-reselection ablation, and the
  coarse-grain variant all come through here.

A small LRU cache keyed by (name, variant, scale, config, tunables,
pass options) avoids recompiling and re-lowering inside experiment
sweeps.  Lowering is a pure function of (config, cores, post-pass
program, offload plans), so equal compilations are interned: a variant
whose passes leave a program and plans equal to a live entry's gets
that entry's trace object and is not lowered again (Algorithm 1 and
Algorithm 2, for one, agree wherever the k = 0 reuse veto never fires).
Unequal compilations of one benchmark still share most of their ops
(every load, store and unmarked compute the passes leave alone), so a
newly lowered trace takes each op a live sibling of the same benchmark
and scale already holds instead of keeping its own equal copy.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.config import ArchConfig, DEFAULT_CONFIG
from repro.core.algorithm1 import Algorithm1, PassReport
from repro.core.algorithm2 import Algorithm2
from repro.core.lowering import lower_program
from repro.core.tunables import Tunables
from repro.isa import Trace, TraceOp, make_trace
from repro.workloads.suite import build_benchmark

#: compilation key -> (trace, pass report, lowering input); least
#: recently used first
_cache: "OrderedDict[tuple, Tuple[Trace, Optional[PassReport], tuple]]" = (
    OrderedDict()
)
_CACHE_MAX = 128
#: lowering input -> its trace; an input leaves with the last cache
#: entry holding it, so no trace outlives its entries here
_lowered: Dict[tuple, Trace] = {}
#: id of each trace the cache holds -> [entries holding it, its serial]
_holders: Dict[int, List[int]] = {}
_serials = itertools.count()


def clear_cache() -> None:
    _cache.clear()
    _lowered.clear()
    _holders.clear()


def trace_serial(trace: Trace) -> int:
    """The number the cache gave ``trace`` when it lowered it.

    No other trace ever gets that number, so it names ``trace`` even
    after the cache has let go of it (an ``id`` can be reused).
    ``trace`` must be one the cache holds.
    """
    return _holders[id(trace)][1]


def compiled_trace(
    name: str,
    variant: str = "original",
    scale: float = 1.0,
    cfg: ArchConfig = DEFAULT_CONFIG,
    cores: Optional[int] = None,
    tunables: Optional[Tunables] = None,
    **pass_options,
) -> Tuple[Trace, Optional[PassReport]]:
    """Build, (optionally) compile, and lower one benchmark.

    Returns ``(trace, pass_report)``; the report is None for the
    ``"original"`` variant.  ``tunables`` parameterizes the compiler
    passes (thresholds, gates, time-out registers); it is ignored by the
    ``"original"`` variant, which runs no pass.
    """
    if variant == "original":
        tunables = None
    # The whole (frozen, hashable) config: the passes and the lowering
    # read far more of it than any hand-picked subset would cover.
    key = (name, variant, scale, cfg, cores,
           tunables.digest() if tunables is not None else None,
           tuple(sorted(pass_options.items())))
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit[0], hit[1]

    program = build_benchmark(name, scale)
    report: Optional[PassReport] = None
    plans = None
    if variant == "original":
        if pass_options:
            raise ValueError("pass options are meaningless for 'original'")
    elif variant == "alg1":
        program, plans, report = Algorithm1(
            cfg, tunables=tunables, **pass_options
        ).run(program)
    elif variant == "alg2":
        program, plans, report = Algorithm2(
            cfg, tunables=tunables, **pass_options
        ).run(program)
    elif variant == "layout_alg1":
        from repro.core.layout import optimize_layout

        program, _layout_report = optimize_layout(
            program, cfg, tunables=tunables
        )
        program, plans, report = Algorithm1(
            cfg, tunables=tunables, **pass_options
        ).run(program)
    elif variant == "coda":
        from repro.core.layout import coda_placement

        program, _layout_report = coda_placement(
            program, cfg, tunables=tunables
        )
        program, plans, report = Algorithm2(
            cfg, tunables=tunables, **pass_options
        ).run(program)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # Everything ``lower_program`` reads.  The IR, the resolvers and
    # ``OffloadPlan`` are frozen dataclasses that compare every field.
    lowering = (cfg, cores, program, tuple(sorted((plans or {}).items())))
    trace = _lowered.get(lowering)
    if trace is None:
        trace = _lowered[lowering] = _share_ops(
            lower_program(program, cfg, plans, cores), name, scale
        )
    held = _holders.setdefault(id(trace), [0, next(_serials)])
    held[0] += 1

    if len(_cache) >= _CACHE_MAX:
        _, (old_trace, _, old) = _cache.popitem(last=False)
        held = _holders[id(old_trace)]
        held[0] -= 1
        if not held[0]:
            del _holders[id(old_trace)], _lowered[old]
    _cache[key] = (trace, report, lowering)
    return trace, report


def _share_ops(trace: Trace, name: str, scale: float) -> Trace:
    """``trace`` with each op swapped for the equal op a live sibling
    (a cached trace of the same benchmark and scale) holds, if any.

    Ops are frozen and compared by value, so the result ``==`` ``trace``.
    The table dies with the call: a process-wide one would outlive the
    traces it serves.
    """
    siblings = {  # a key starts (name, variant, scale, ...)
        id(t): t for key, (t, _, _) in _cache.items()
        if key[0] == name and key[2] == scale
    }
    if not siblings:
        return trace
    # Siblings already share most op objects: skip repeats by identity
    # so only distinct objects are hashed.
    distinct: Dict[int, TraceOp] = {}
    for sibling in siblings.values():
        for stream in sibling:
            distinct.update(zip(map(id, stream), stream))
    table = {op: op for op in distinct.values()}
    return make_trace(map(table.get, s, s) for s in trace)


def benchmark_trace(
    name: str,
    variant: str = "original",
    scale: float = 1.0,
    cfg: ArchConfig = DEFAULT_CONFIG,
    cores: Optional[int] = None,
    tunables: Optional[Tunables] = None,
    **pass_options,
) -> Trace:
    """Like :func:`compiled_trace` but returns only the trace."""
    return compiled_trace(
        name, variant, scale, cfg, cores, tunables, **pass_options
    )[0]
