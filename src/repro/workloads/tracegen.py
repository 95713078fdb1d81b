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
sweeps.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.config import ArchConfig, DEFAULT_CONFIG
from repro.core.algorithm1 import Algorithm1, PassReport
from repro.core.algorithm2 import Algorithm2
from repro.core.lowering import lower_program
from repro.core.tunables import Tunables
from repro.isa import Trace
from repro.workloads.suite import build_benchmark

_cache: "OrderedDict[tuple, Tuple[Trace, Optional[PassReport]]]" = OrderedDict()
_CACHE_MAX = 128


def clear_cache() -> None:
    _cache.clear()


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
        return hit

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
    trace = lower_program(program, cfg, plans, cores)

    if len(_cache) >= _CACHE_MAX:
        _cache.popitem(last=False)
    _cache[key] = (trace, report)
    return trace, report


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
