"""Cache Miss Equations (CME)-style static hit/miss estimation.

Following Ghosh/Martonosi/Malik (TOPLAS'99), the estimator is built on
compiler reuse analysis: for every reference it derives reuse vectors
(the integer — Diophantine — solutions of ``F·r = Δf`` computed in
:mod:`repro.core.reuse`), converts them to iteration-space reuse
distances, and classifies each access as a cold, capacity, or conflict
miss:

* **cold** — the access touches a line never touched before (rate =
  the new-line probability of the innermost stride);
* **capacity** — a reuse exists but the data footprint touched within
  the reuse window exceeds the cache capacity, so the line is gone;
* **conflict** — the footprint fits, but the lines touched within the
  window over-subscribe the reference's cache set beyond the
  associativity (estimated from the window's per-set line pressure and
  exact stride/set-alignment interference).

Our implementation adds the paper's engineering extensions: imperfect
nest sequences (each nest analyzed with the cache state summarized from
preceding nests), non-affine (opaque) references (treated as streaming,
always-new-line), and record/union-style wide elements (any
``element_size``).  Like the paper's, it does **not** model coherence
(and more broadly cross-core interference on the shared L2) — exactly
the effect the paper blames for most mispredictions; Table 2's accuracy
experiment measures that gap against the functional simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.config import CacheConfig
from repro.core.ir import ArrayRef, LoopNest, OpaqueRef, Ref, Statement
from repro.core.reuse import (
    group_reuse_distance,
    has_spatial_reuse,
    self_temporal_reuse,
)

IntVector = Tuple[int, ...]


def _iteration_weights(nest: LoopNest) -> Tuple[int, ...]:
    """Mixed-radix weights turning an iteration-distance vector into a
    scalar count of iterations."""
    trips = nest.trip_counts
    weights = [1] * len(trips)
    for k in range(len(trips) - 2, -1, -1):
        weights[k] = weights[k + 1] * trips[k + 1]
    return tuple(weights)


def _vector_to_count(vec: Sequence[int], weights: Sequence[int]) -> int:
    return abs(sum(int(v) * w for v, w in zip(vec, weights)))


def _stride_bytes(r: Ref, level: int) -> int:
    """Address change per step of loop ``level`` (absolute bytes)."""
    if isinstance(r, OpaqueRef):
        # Non-affine: treat as random-stride streaming.
        return 1 << 20
    arr = r.array
    stride_elems = 0
    mult = 1
    for row, dim in zip(reversed(r.F), reversed(arr.shape)):
        stride_elems += (row[level] if row else 0) * mult
        mult *= dim
    return abs(stride_elems) * arr.element_size


def _inner_stride_bytes(r: Ref) -> int:
    """Address change per innermost-loop step (absolute bytes)."""
    if isinstance(r, OpaqueRef):
        return 1 << 20
    return _stride_bytes(r, -1)


def _effective_new_line_rate(r: Ref, trips, line: int) -> float:
    """Per-access probability of opening a new line.

    Uses the *deepest loop level whose stride is nonzero*: a reference
    invariant in the innermost loop still opens a new line once per
    sweep of the inner loops when an outer index moves it.
    """
    if isinstance(r, OpaqueRef):
        return 1.0
    n = len(r.F[0]) if r.F else 0
    repeat = 1
    for level in range(n - 1, -1, -1):
        stride = _stride_bytes(r, level)
        if stride != 0:
            return min(1.0, stride / line) / repeat
        repeat *= max(1, trips[level])
    return 0.0  # fully loop-invariant


@dataclass(frozen=True)
class RefMissEstimate:
    """Static verdict for one reference at one cache level."""

    stmt_sid: int
    ref_repr: str
    level_name: str
    miss_rate: float       #: expected per-access miss probability
    cold_rate: float
    capacity_rate: float
    conflict_rate: float
    new_line_rate: float
    reuse_distance: Optional[int]   #: iterations to the nearest reuse; None = no reuse

    @property
    def predicted_miss(self) -> bool:
        """Binary verdict the passes use: majority-miss reference?"""
        return self.miss_rate > 0.5


class CmeEstimator:
    """Static per-reference miss estimation for one cache level.

    ``sharers`` scales the effective capacity for shared levels: the L2
    is NUCA-shared by all cores, so a single thread only gets an
    (approximately) proportional slice of the aggregate — the estimator
    models the *banked aggregate* divided by the number of co-running
    threads.
    """

    def __init__(self, cache: CacheConfig, sharers: int = 1, banks: int = 1):
        self.cache = cache
        self.sharers = max(1, sharers)
        self.banks = max(1, banks)

    @property
    def effective_capacity(self) -> int:
        return self.cache.size_bytes * self.banks // self.sharers

    # ------------------------------------------------------------------
    def analyze_nest(self, nest: LoopNest) -> Dict[Tuple[int, int], RefMissEstimate]:
        """Estimate every reference of ``nest``; key = (sid, ref index)."""
        out: Dict[Tuple[int, int], RefMissEstimate] = {}
        weights = _iteration_weights(nest)
        refs = [
            (st, k, r)
            for st in nest.body
            for k, r in enumerate(st.all_reads() + st.all_writes())
        ]
        bytes_per_iter = self._footprint_bytes_per_iteration(nest)
        for st, k, r in refs:
            out[(st.sid, k)] = self._estimate_ref(
                nest, st, r, weights, bytes_per_iter
            )
        return out

    def _footprint_bytes_per_iteration(self, nest: LoopNest) -> float:
        total = 0.0
        line = self.cache.line_bytes
        for st in nest.body:
            for r in st.all_reads() + st.all_writes():
                stride = _inner_stride_bytes(r)
                if stride == 0:
                    continue  # loop-invariant: negligible footprint
                total += min(1.0, stride / line) * line
        return max(total, 1.0)

    def _estimate_ref(
        self,
        nest: LoopNest,
        st: Statement,
        r: Ref,
        weights: Sequence[int],
        bytes_per_iter: float,
    ) -> RefMissEstimate:
        line = self.cache.line_bytes
        cap = self.effective_capacity

        if isinstance(r, OpaqueRef):
            # Non-affine: every access may open a new line; no provable reuse.
            return RefMissEstimate(
                st.sid, repr(r), self._level_name(), 1.0, 1.0, 0.0, 0.0, 1.0, None
            )

        new_line_rate = _effective_new_line_rate(r, nest.trip_counts, line)
        if new_line_rate == 0.0:
            # Loop-invariant reference: one cold miss, then register-like hits.
            total = max(1, nest.iterations)
            return RefMissEstimate(
                st.sid, repr(r), self._level_name(),
                1.0 / total, 1.0 / total, 0.0, 0.0, 1.0 / total, 1,
            )

        # --- temporal reuse distance (Diophantine reuse solutions) -----
        dist = self._min_reuse_distance(nest, st, r, weights)

        # --- spatial-only references ------------------------------------
        if dist is None:
            # Each line is touched in one burst; misses = new lines.
            rate = new_line_rate
            return RefMissEstimate(
                st.sid, repr(r), self._level_name(),
                rate, rate, 0.0, 0.0, new_line_rate, None,
            )

        # --- capacity test over the reuse window -----------------------
        window_bytes = dist * bytes_per_iter
        if window_bytes > cap:
            rate = new_line_rate
            return RefMissEstimate(
                st.sid, repr(r), self._level_name(),
                rate, self._cold_fraction(nest, r, new_line_rate),
                rate - self._cold_fraction(nest, r, new_line_rate), 0.0,
                new_line_rate, dist,
            )

        # --- conflict test ----------------------------------------------
        lines_in_window = window_bytes / line
        sets = max(1, self.cache.num_sets * self.banks // self.sharers)
        pressure = lines_in_window / sets
        conflict = 0.0
        if pressure > self.cache.ways:
            conflict = min(1.0, (pressure - self.cache.ways) / pressure)
        conflict += self._alignment_conflict(nest, st, r)
        conflict = min(1.0, conflict)

        cold = self._cold_fraction(nest, r, new_line_rate)
        rate = min(1.0, cold + conflict * new_line_rate)
        return RefMissEstimate(
            st.sid, repr(r), self._level_name(),
            rate, cold, 0.0, conflict * new_line_rate, new_line_rate, dist,
        )

    def _min_reuse_distance(
        self,
        nest: LoopNest,
        st: Statement,
        r: ArrayRef,
        weights: Sequence[int],
    ) -> Optional[int]:
        """Iterations to the nearest temporal (self or group) reuse."""
        best: Optional[int] = None
        sv = self_temporal_reuse(r)
        if sv is not None:
            best = _vector_to_count(sv, weights)
        for other_st in nest.body:
            for o in other_st.all_reads() + other_st.all_writes():
                if isinstance(o, OpaqueRef) or o is r:
                    continue
                d = group_reuse_distance(r, o)
                if d is None:
                    continue
                cnt = _vector_to_count(d, weights)
                if cnt == 0:
                    cnt = 1  # same iteration, later statement: immediate reuse
                if best is None or cnt < best:
                    best = cnt
        if best is None and has_spatial_reuse(
            r, max(1, self.cache.line_bytes // r.array.element_size)
        ):
            best = 1
        return best

    def _cold_fraction(
        self, nest: LoopNest, r: ArrayRef, new_line_rate: float
    ) -> float:
        """Fraction of accesses that are compulsory (first-line) misses."""
        touched_lines = min(
            r.array.size_bytes / self.cache.line_bytes,
            new_line_rate * nest.iterations,
        )
        return min(1.0, touched_lines / max(1, nest.iterations))

    def _alignment_conflict(
        self, nest: LoopNest, st: Statement, r: ArrayRef
    ) -> float:
        """Extra conflicts from same-set-aligned streams.

        Two references whose per-iteration addresses differ by a multiple
        of ``sets * line`` land in the same set every iteration; count
        how many such interferers exist and compare to associativity.
        """
        period = self.cache.num_sets * self.cache.line_bytes
        base_set = (r.array.base // self.cache.line_bytes) % max(1, self.cache.num_sets)
        aligned = 0
        for other_st in nest.body:
            for o in other_st.all_reads() + other_st.all_writes():
                if isinstance(o, OpaqueRef) or o is r:
                    continue
                if _inner_stride_bytes(o) != _inner_stride_bytes(r):
                    continue
                o_set = (o.array.base // self.cache.line_bytes) % max(
                    1, self.cache.num_sets
                )
                if o_set == base_set and o.array.base != r.array.base:
                    aligned += 1
        if aligned >= self.cache.ways:
            return min(1.0, (aligned - self.cache.ways + 1) / (aligned + 1))
        return 0.0

    def _level_name(self) -> str:
        return f"{self.cache.size_bytes // 1024}KB"

    # ------------------------------------------------------------------
    def operand_miss_rates(
        self, nest: LoopNest, stmt: Statement
    ) -> Tuple[float, float]:
        """Predicted per-access miss rates of a compute's two operands.

        This is the check Algorithm 1 performs before moving accesses:
        both operands should miss the L1 so that they travel to where
        NDC can happen (Section 5.2.1, first challenge).  The pass
        marks the pre-compute when a non-trivial fraction of instances
        miss; the hardware's local probe filters the hitting instances
        at run time.
        """
        assert stmt.compute is not None
        est = self.analyze_nest(nest)
        reads = stmt.all_reads()
        x_idx = reads.index(stmt.compute.x)
        y_idx = reads.index(stmt.compute.y)
        return (
            est[(stmt.sid, x_idx)].miss_rate,
            est[(stmt.sid, y_idx)].miss_rate,
        )

    def operand_verdicts(
        self, nest: LoopNest, stmt: Statement
    ) -> Tuple[bool, bool]:
        """Binary majority-miss verdicts for a compute's operands."""
        rx, ry = self.operand_miss_rates(nest, stmt)
        return rx > 0.5, ry > 0.5


def predict_accesses(
    estimator: CmeEstimator, nest: LoopNest
) -> Dict[Tuple[int, int], float]:
    """Convenience: (sid, ref index) -> predicted miss rate."""
    return {
        k: v.miss_rate for k, v in estimator.analyze_nest(nest).items()
    }

