"""Auto-calibration subsystem (``repro tune``).

Searches the :class:`~repro.core.tunables.Tunables` space against the
paper's Fig. 4 targets and ships the per-scale winners in the in-tree
``calibrated.json`` artifact, which
:class:`~repro.analysis.experiments.ExperimentRunner` loads by default.

Submodules
----------
:mod:`repro.tuning.objective`
    Lexicographic (ordering violations, paper distance) score.
:mod:`repro.tuning.search`
    Seeded grid sample + coordinate descent + successive halving.
:mod:`repro.tuning.calibrated`
    The versioned best-config artifact (load/save).
"""

from repro.tuning.calibrated import (
    CALIBRATED_PATH,
    CALIBRATION_SCHEMA,
    calibrated_tunables,
    load_calibrations,
    resolve_tunables,
    save_calibration,
    scale_key,
)
from repro.tuning.objective import (
    Score,
    ordering_violations,
    paper_distance,
    score_geomeans,
)
from repro.tuning.search import (
    CHEAP_BENCHMARKS,
    DEFAULT_GRID,
    SMOKE_BENCHMARKS,
    SMOKE_GRID,
    Evaluation,
    Tuner,
    TuneResult,
)

__all__ = [
    "CALIBRATED_PATH",
    "CALIBRATION_SCHEMA",
    "CHEAP_BENCHMARKS",
    "DEFAULT_GRID",
    "SMOKE_BENCHMARKS",
    "SMOKE_GRID",
    "Evaluation",
    "Score",
    "TuneResult",
    "Tuner",
    "calibrated_tunables",
    "load_calibrations",
    "ordering_violations",
    "paper_distance",
    "resolve_tunables",
    "save_calibration",
    "scale_key",
    "score_geomeans",
]
