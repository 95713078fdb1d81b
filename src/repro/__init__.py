"""repro — reproduction of "Compiler Support for Near Data Computing"
(Kandemir, Ryoo, Tang, Karakoy; PPoPP 2021).

The package provides:

* :mod:`repro.arch` — a cycle-approximate manycore simulator with the
  paper's NDC-enabling hardware (NDC ALUs at link buffers, L2 banks,
  memory controllers, and DRAM banks);
* :mod:`repro.core` — the compiler: affine loop-nest IR, dependence /
  reuse / CME analyses, unimodular transformations, route-signature
  selection, and the paper's Algorithm 1 and Algorithm 2;
* :mod:`repro.schemes` — the runtime NDC policies of Fig. 4 (baseline,
  wait-forever, Wait(x%), Last-Wait, oracle, compiler-directed);
* :mod:`repro.workloads` — the 20-benchmark synthetic suite;
* :mod:`repro.analysis` — drivers regenerating every table and figure.

The **stable public API** is :mod:`repro.api` — seven verbs
(``simulate`` / ``evaluate`` / ``lineup`` / ``tune`` / ``sweep`` /
``characterize`` / ``bench``) wrapping every internal entrypoint;
``evaluate``/``lineup``/``tune``/``sweep``/``characterize`` are also
re-exported here lazily — ``bench`` is not (``repro.bench`` is the
benchmark *package*; the verb lives at ``repro.api.bench``).
(Top-level
``repro.simulate`` remains the *low-level* trace simulator for
backwards compatibility; the facade's benchmark-level variant is
``repro.api.simulate``.)

Quick start::

    from repro import api, quick_compare
    print(quick_compare("swim"))
    print(api.lineup(scale=0.25).render())
"""

from repro.config import (
    ArchConfig,
    DEFAULT_CONFIG,
    NdcComponentMask,
    NdcLocation,
    OpClass,
)
from repro.arch.simulator import SimulationResult, SystemSimulator, simulate
from repro.arch.stats import improvement_percent
from repro.core.algorithm1 import Algorithm1
from repro.core.algorithm2 import Algorithm2
from repro.core.lowering import lower_program
from repro.core.tunables import DEFAULT_TUNABLES, Tunables
from repro.schemes import (
    CompilerDirected,
    LastWait,
    NoNdc,
    OracleScheme,
    WaitForever,
    WaitFraction,
)
from repro.workloads import benchmark_trace, build_benchmark, compiled_trace

__version__ = "1.0.0"

__all__ = [
    "ArchConfig",
    "DEFAULT_CONFIG",
    "NdcComponentMask",
    "NdcLocation",
    "OpClass",
    "SimulationResult",
    "SystemSimulator",
    "simulate",
    "improvement_percent",
    "Algorithm1",
    "Algorithm2",
    "lower_program",
    "DEFAULT_TUNABLES",
    "Tunables",
    "CompilerDirected",
    "LastWait",
    "NoNdc",
    "OracleScheme",
    "WaitForever",
    "WaitFraction",
    "benchmark_trace",
    "build_benchmark",
    "compiled_trace",
    "quick_compare",
    # stable facade (lazy; see repro.api).  No "bench" here: the name
    # is taken by the repro.bench package; the verb is repro.api.bench.
    "api",
    "characterize",
    "evaluate",
    "lineup",
    "sweep",
    "tune",
]

#: Facade names resolved lazily (PEP 562) so ``import repro`` stays
#: light and circular-import-free; ``repro.simulate`` keeps pointing at
#: the low-level trace simulator (the facade's is ``repro.api.simulate``).
_LAZY_FACADE = (
    "characterize", "evaluate", "lineup", "sweep", "tune",
)


def __getattr__(name: str):
    if name == "api":
        import importlib

        return importlib.import_module("repro.api")
    if name in _LAZY_FACADE:
        from repro import api as _api

        return getattr(_api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def quick_compare(
    benchmark: str = "swim", scale: float = 0.25, tunables=None
) -> str:
    """Compile + simulate one benchmark under the headline schemes.

    Returns a small text table of improvement percentages — the
    friendliest way to see the system end to end, and exactly what
    ``repro compare`` prints.  ``tunables`` defaults to the shipped
    per-scale calibration (see :mod:`repro.tuning`) when one exists.
    """
    from repro import api
    from repro.analysis.experiments import compare_table
    from repro.schemes import COMPARE_LINEUP

    result = api.lineup(
        scale, [benchmark], schemes=COMPARE_LINEUP, tunables=tunables,
        cache=False,
    )
    return compare_table(result, benchmark, scale)
