"""Host-time tracer for the end-to-end benchmark's ``--trace`` run.

The tracer wraps the layers' public entry points from outside the
program; nothing under ``src/`` knows it exists.  Two kinds of layer:

* **Pipeline layers** (trace generation, compiler passes, the
  simulator's ``run``, cache I/O, campaign bookkeeping, ...) record one
  span per call: name, start, end, parent span and job id.  Spans stay
  in memory and are written out when the run ends.
* **Simulator-interior layers** (``arch.access``, ``arch.noc``, ...)
  fire about 10^5 times per simulation, so they keep only a per-layer
  call count and self time.

A layer's self time is its calls' duration minus the time of the
wrapped calls they made, so the self times of all layers plus the
untraced residual (``other``) add up to the traced wall time.

Interior methods are found on the concrete classes reachable from a
freshly built default-profile ``SystemSimulator``, not on a hard-coded
class list, so the trace follows the engine when its classes change.
Wrappers are installed before the workload creates any instance, and
every module binding of a wrapped function is patched too (for example
``compiled_trace`` as imported by ``repro.runtime.parallel``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, entry points).  ``Class.*`` means every plain method
#: the class defines itself (generators and context managers excluded:
#: their bodies run after the call returns).
PIPELINE: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("workloads.build", "repro.workloads.suite", ("build_benchmark",)),
    ("core.algorithm1", "repro.core.algorithm1", ("Algorithm1.run",)),
    ("core.algorithm2", "repro.core.algorithm2", ("Algorithm2.run",)),
    ("core.layout", "repro.core.layout", ("LayoutOptimizer.run",)),
    ("core.lowering", "repro.core.lowering", ("lower_program",)),
    ("workloads.tracegen", "repro.workloads.tracegen", ("compiled_trace",)),
    ("schemes.warmup", "repro.schemes", ("warmup_profile",)),
    ("arch.simulator", "repro.arch.simulator", ("SystemSimulator.run",)),
    ("runtime.keys", "repro.runtime.keys", ("digest_of",)),
    ("runtime.cache", "repro.runtime.cache",
     ("ResultCache.load", "ResultCache.store")),
    ("runtime.parallel", "repro.runtime.parallel",
     ("ParallelRunner.run", "ParallelRunner.run_many", "execute_job")),
    ("campaign.queue", "repro.campaign.queue", ("ClaimQueue.*",)),
    ("campaign.manifest", "repro.campaign.manifest", ("Manifest.*",)),
    ("campaign.runner", "repro.campaign.runner", ("CampaignRunner.*",)),
    ("analysis.characterize", "repro.analysis.characterize",
     ("characterize_result", "class_winners")),
    ("analysis.experiments", "repro.analysis.experiments",
     ("ExperimentRunner.*", "fig4_scheme_benefits")),
)

#: Simulator-interior layers, by the module that defines the class.
INTERIOR: Dict[str, str] = {
    "repro.arch.access": "arch.access",
    "repro.arch.candidates": "arch.candidates",
    "repro.arch.ndc_exec": "arch.ndc_exec",
    "repro.arch.noc": "arch.noc",
    "repro.arch.machine": "arch.machine",
    "repro.arch.memory": "arch.memory",
    "repro.arch.cache": "arch.cache",
    "repro.arch.engine": "arch.engine",
}
DECIDE = "schemes.decide"

LAYERS: Tuple[str, ...] = (
    tuple(layer for layer, _, _ in PIPELINE)
    + (DECIDE,)
    + tuple(INTERIOR.values())
)


def _job_of_execute(args, kwargs) -> str:
    key = args[1] if len(args) > 1 else kwargs["key"]
    return key.describe()


def _file_size(cache, digest: str) -> int:
    try:
        return os.stat(cache.path(digest)).st_size
    except (AttributeError, OSError):
        return 0


def _on_cache_load(counters, args, kwargs, result) -> None:
    if result is None:
        counters["runtime.cache.misses"] += 1
    else:
        counters["runtime.cache.hits"] += 1
        counters["runtime.cache.bytes_read"] += _file_size(*args[:2])


def _on_cache_store(counters, args, kwargs, result) -> None:
    if result:
        counters["runtime.cache.bytes_written"] += _file_size(*args[:2])


def _on_simulate(counters, args, kwargs, result) -> None:
    counters["arch.ops"] += result.stats.instructions


#: per-entry-point extras: (job id from the arguments, counter hook)
_EXTRAS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "execute_job": (_job_of_execute, None),
    "ResultCache.load": (None, _on_cache_load),
    "ResultCache.store": (None, _on_cache_store),
    "SystemSimulator.run": (None, _on_simulate),
}

COUNTERS = (
    "arch.ops",
    "runtime.cache.hits",
    "runtime.cache.misses",
    "runtime.cache.bytes_read",
    "runtime.cache.bytes_written",
)


def _traceable(fn) -> bool:
    if not inspect.isfunction(fn):
        return False
    inner = inspect.unwrap(fn)
    return not (
        inspect.isgeneratorfunction(inner)
        or inspect.isasyncgenfunction(inner)
        or inspect.iscoroutinefunction(inner)
    )


def _own_methods(cls) -> List[str]:
    return [
        name for name, value in vars(cls).items()
        if _traceable(value)
        and (name == "__init__" or not name.startswith("__"))
    ]


def _reachable_types(root) -> set:
    """Types of every ``repro`` object reachable from ``root``."""
    seen = set()
    types = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        cls = type(obj)
        if not cls.__module__.startswith("repro."):
            continue
        types.add(cls)
        stack.extend(getattr(obj, "__dict__", {}).values())
        for klass in cls.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return types


def interior_targets() -> List[Tuple[type, str, str]]:
    """``(class, method, layer)`` for every interior method to wrap."""
    from repro.arch.simulator import SystemSimulator
    from repro.config import DEFAULT_CONFIG
    from repro.schemes import SCHEMES, build_scheme

    reachable = _reachable_types(SystemSimulator(DEFAULT_CONFIG))
    # Building that simulator filled the engine's memo tables (route
    # tables, meshes); empty them so the cold pass still starts cold.
    for mod in _repro_modules():
        if mod.__name__.startswith("repro.arch"):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    out = []
    for cls in sorted(reachable,
                      key=lambda c: (c.__module__, c.__qualname__)):
        layered = [k for k in cls.__mro__ if k.__module__ in INTERIOR]
        if not layered:
            continue
        layer = INTERIOR[layered[0].__module__]
        names = sorted({n for k in layered for n in _own_methods(k)})
        out.extend((cls, name, layer) for name in names)
    schemes = {type(build_scheme(label).build()) for label in SCHEMES}
    for cls in sorted(schemes, key=lambda c: c.__qualname__):
        out.append((cls, "decide", DECIDE))
    return out


class Tracer:
    """Wraps the layers, records spans and per-layer totals."""

    def __init__(self) -> None:
        #: recording switch: wrappers pass straight through while off
        self.on = False
        #: job id stamped on new spans (the pass tag, or the simulation
        #: job's description inside ``execute_job``)
        self.job: Optional[str] = None
        self.origin = time.perf_counter()
        #: layer -> [calls, self seconds, inclusive seconds]
        self.cells: Dict[str, List[float]] = {
            layer: [0, 0.0, 0.0] for layer in LAYERS
        }
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        #: (id, layer, start, end, parent id, job)
        self.spans: List[Optional[tuple]] = []
        #: entry points the program no longer has (reported, not fatal)
        self.missing: List[str] = []
        #: (owner, attribute, original, owner had its own attribute)
        self.patches: List[Tuple[object, str, object, bool]] = []
        self._child: List[float] = []
        self._open: List[int] = []
        self._wrappers: Dict[int, Tuple[object, object]] = {}

    @contextlib.contextmanager
    def recording(self, job: str):
        """Record (with spans stamped ``job``) inside the block only."""
        self.job = job
        self.on = True
        try:
            yield
        finally:
            self.on = False
            self.job = None

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _interior_wrapper(self, fn, layer: str):
        tracer = self
        cell = self.cells[layer]
        child = self._child
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                cell[0] += 1
                cell[1] += dur - child.pop()
                if child:
                    child[-1] += dur

        return wrapper

    def _span_wrapper(self, fn, layer: str, job_of, hook):
        tracer = self
        cell = self.cells[layer]
        child = self._child
        open_spans = self._open
        spans = self.spans
        counters = self.counters
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            outer_job = tracer.job
            if job_of is not None:
                tracer.job = job_of(args, kwargs)
            child.append(0.0)
            t0 = perf()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf()
                dur = t1 - t0
                cell[0] += 1
                cell[1] += dur - child.pop()
                cell[2] += dur
                spans[sid] = (sid, layer, t0 - tracer.origin,
                              t1 - tracer.origin, parent, tracer.job)
                open_spans.pop()
                tracer.job = outer_job
                extra = 0.0
                if hook is not None and done:
                    # Counter upkeep is tracer cost: keep it out of the
                    # enclosing layer's self time (it lands in "other").
                    h0 = perf()
                    hook(counters, args, kwargs, result)
                    extra = perf() - h0
                if child:
                    child[-1] += dur + extra

        return wrapper

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------
    def _pipeline_targets(self) -> List[Tuple[object, str, str, str]]:
        """``(owner, attribute, layer, entry name)`` for every pipeline
        entry point; names the program lacks go to ``missing``."""
        out = []
        for layer, modname, entries in PIPELINE:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.extend(f"{modname}.{e}" for e in entries)
                continue
            for entry in entries:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if owner is None:
                    self.missing.append(f"{modname}.{entry}")
                elif attr == "*":
                    out.extend(
                        (owner, name, layer, f"{owner_name}.{name}")
                        for name in _own_methods(owner)
                    )
                elif _traceable(inspect.getattr_static(owner, attr, None)):
                    out.append((owner, attr, layer, entry))
                else:
                    self.missing.append(f"{modname}.{entry}")
        return out

    def install(self) -> None:
        """Wrap every layer.  Call before the workload builds anything."""
        import repro.api  # noqa: F401  (binds the facade's imports)

        plan = []
        # Resolve every original first: a subclass entry (Algorithm2.run)
        # must wrap the inherited function, not its base's wrapper.
        for owner, attr, layer, entry in self._pipeline_targets():
            job_of, hook = _EXTRAS.get(entry, (None, None))
            fn = inspect.getattr_static(owner, attr)
            plan.append((owner, attr, self._span_wrapper(
                fn, layer, job_of, hook), fn))
        for cls, attr, layer in interior_targets():
            fn = inspect.getattr_static(cls, attr)
            plan.append((cls, attr, self._interior_wrapper(fn, layer), fn))
        for owner, attr, wrapper, fn in plan:
            if not inspect.ismodule(owner):
                self._patch(owner, attr, wrapper)
                continue
            self._wrappers[id(wrapper)] = (wrapper, fn)
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self.patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, including bindings made after install."""
        self.on = False
        for owner, attr, original, own in reversed(self.patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.patches.clear()
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
        self._wrappers.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "cells": {k: list(v) for k, v in self.cells.items()},
            "counters": dict(self.counters),
            "spans": len(self.spans),
        }

    def metrics(self, wall_s: float, start: Optional[dict] = None,
                end: Optional[dict] = None) -> dict:
        """Per-layer metrics of what was recorded between two
        :meth:`snapshot`\\ s (default: everything), against ``wall_s`` of
        traced wall time over the same stretch."""
        start = start or {
            "cells": {k: [0, 0.0, 0.0] for k in LAYERS},
            "counters": {k: 0 for k in COUNTERS},
            "spans": 0,
        }
        end = end or self.snapshot()
        out: Dict[str, float] = {}
        total_self = 0.0
        for layer in LAYERS:
            calls, self_s, incl_s = (
                a - b for a, b in zip(end["cells"][layer],
                                      start["cells"][layer])
            )
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            total_self += self_s
            if layer in ("arch.simulator", "schemes.warmup"):
                out[f"{layer}.incl_s"] = incl_s
        for name in COUNTERS:
            out[name] = end["counters"][name] - start["counters"][name]
        out["schemes.warmup.sims"] = self._warmup_sims(
            start["spans"], end["spans"]
        )
        gen = out["workloads.tracegen.calls"]
        out["workloads.tracegen.hit_ratio"] = (
            1.0 - out["core.lowering.calls"] / gen if gen else 0.0
        )
        out["other.self_s"] = wall_s - total_self
        return out

    def _warmup_sims(self, first: int, last: int) -> int:
        """Simulator spans in ``[first, last)`` run by a warm-up."""
        parent = {s[0]: s[4] for s in self.spans if s is not None}
        layer = {s[0]: s[1] for s in self.spans if s is not None}
        count = 0
        for sid in range(first, last):
            if layer.get(sid) != "arch.simulator":
                continue
            p = parent.get(sid)
            while p is not None and layer[p] != "schemes.warmup":
                p = parent[p]
            count += p is not None
        return count

    def span_records(self) -> List[dict]:
        keys = ("id", "name", "start", "end", "parent", "job")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]


def _repro_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None
        and (name == "repro" or name.startswith("repro."))
    ]
