"""The calibration objective: paper-shape first, paper-distance second.

A candidate :class:`~repro.core.tunables.Tunables` is evaluated by
running the Fig. 4 headline lineup (default / oracle / algorithm-1 /
algorithm-2) over a benchmark set and scoring the resulting geometric
means against the paper's published bars
(:data:`repro.analysis.paper_data.FIG4_GEOMEAN`).

The score is deliberately **lexicographic**:

1. ``violations`` — how many of the paper's hard ordering constraints
   the candidate breaks:

   * ``oracle >= algorithm-2``
   * ``algorithm-2 >= algorithm-1``
   * ``algorithm-1 > 0``      (the compiler must *help*)
   * ``0 > default``          (blind waiting must *hurt*)

   plus, as a magnitude guard, the oracle must stay a "large
   improvement" (> 1 %) — a calibration that flattens every bar to ~0
   trivially satisfies the ordering but reproduces nothing.

2. ``distance`` — mean relative distance between the measured geomeans
   and the paper's bars, over the labels present in both.

Any candidate with fewer violations beats any candidate with more,
regardless of distance; distance only breaks ties *within* a violation
class.  ``tests/test_tuning.py`` pins that property on hand-built score
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.paper_data import FIG4_GEOMEAN
from repro.schemes import HEADLINE_LINEUP

#: Minimum oracle geomean (%): guards against degenerate calibrations
#: that satisfy the ordering by flattening every bar to noise.
MIN_ORACLE_IMPROVEMENT = 1.0


@dataclass(frozen=True, order=True)
class Score:
    """Lexicographic (violations, distance) score — smaller is better.

    ``order=True`` makes tuple-style comparison (violations first,
    distance second) the natural sort order, so ``min(scores)`` picks
    the winner.  ``violated`` (not part of the ordering) names the
    broken constraints for reporting.
    """

    violations: int
    distance: float
    violated: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def feasible(self) -> bool:
        return self.violations == 0

    def describe(self) -> str:
        if self.feasible:
            return f"ok(distance={self.distance:.4f})"
        return (
            f"violations={self.violations}"
            f"[{', '.join(self.violated)}] distance={self.distance:.4f}"
        )


def ordering_violations(geomeans: Mapping[str, float]) -> List[str]:
    """Names of the hard Fig. 4 constraints ``geomeans`` breaks.

    Missing labels count as violations — a candidate must be measured
    on every headline bar to be feasible.
    """
    out: List[str] = []
    g: Dict[str, Optional[float]] = {
        label: geomeans.get(label) for label in HEADLINE_LINEUP
    }
    missing = [label for label, v in g.items() if v is None]
    if missing:
        out.extend(f"missing:{label}" for label in missing)
        return out
    if g["oracle"] < g["algorithm-2"]:
        out.append("oracle>=alg2")
    if g["algorithm-2"] < g["algorithm-1"]:
        out.append("alg2>=alg1")
    if g["algorithm-1"] <= 0:
        out.append("alg1>0")
    if g["default"] >= 0:
        out.append("0>wait-forever")
    if g["oracle"] <= MIN_ORACLE_IMPROVEMENT:
        out.append("oracle-magnitude")
    return out


def paper_distance(
    geomeans: Mapping[str, float],
    targets: Mapping[str, float] = FIG4_GEOMEAN,
) -> float:
    """Mean relative distance to the paper's bars (labels in both)."""
    labels = [label for label in geomeans if label in targets]
    if not labels:
        return float("inf")
    total = 0.0
    for label in labels:
        want = targets[label]
        total += abs(geomeans[label] - want) / max(1.0, abs(want))
    return total / len(labels)


def score_geomeans(
    geomeans: Mapping[str, float],
    targets: Mapping[str, float] = FIG4_GEOMEAN,
) -> Score:
    """Score one candidate's measured geomeans (smaller is better)."""
    violated = tuple(ordering_violations(geomeans))
    return Score(
        violations=len(violated),
        distance=paper_distance(geomeans, targets),
        violated=violated,
    )
