"""Property + regression tests for the capacity-timeline implementations.

The optimized :class:`~repro.arch.engine.CapacityTimeline` (lazily
invalidated end heaps) is held equivalent to the pre-optimization
:class:`~repro.arch.engine.ReferenceCapacityTimeline` (full rescans) by
driving both with identical random operation sequences and comparing
every observable after every step — admit outcomes, purge counts,
``latest_end``, occupancy, ``full``, and the ``late_updates`` counter.

Also pins the ``update_end``-after-purge fix: the old code raised a
bare ``KeyError`` when a leave-time update arrived for an entry that
had already been purged; it is now a counted no-op.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.engine import CapacityTimeline, ReferenceCapacityTimeline

# One program step: (op, args...) over a bounded id space so re-use of
# purged ids (the service tables' actual behaviour) is exercised.
_ids = st.integers(min_value=0, max_value=7)
_times = st.integers(min_value=0, max_value=400)
_spans = st.integers(min_value=0, max_value=120)

_step = st.one_of(
    st.tuples(st.just("admit"), _ids, _times, _spans),
    st.tuples(st.just("purge"), _times),
    st.tuples(st.just("latest_end"), _times),
    st.tuples(st.just("live_count"), _times),
    st.tuples(st.just("full"), _times),
    st.tuples(st.just("update_end"), _ids, _times),
)


def _apply(tl, step):
    """Run one step; returns the observable outcome of the step."""
    op = step[0]
    if op == "admit":
        _, entry_id, start, span = step
        return tl.admit(entry_id, start, start + span)
    if op == "purge":
        return tl.purge(step[1])
    if op == "latest_end":
        return tl.latest_end(step[1])
    if op == "live_count":
        return tl.live_count(step[1])
    if op == "full":
        return tl.full(step[1])
    _, entry_id, end = step
    return tl.update_end(entry_id, end)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    steps=st.lists(_step, min_size=1, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_optimized_equals_reference_oracle(capacity, steps):
    fast = CapacityTimeline(capacity, "fast")
    oracle = ReferenceCapacityTimeline(capacity, "oracle")
    for step in steps:
        assert _apply(fast, step) == _apply(oracle, step), step
        # Observable state equal after every step, not just outcomes.
        assert fast.occupancy == oracle.occupancy
        assert fast.admissions == oracle.admissions
        assert fast.rejections == oracle.rejections
        assert fast.late_updates == oracle.late_updates
        assert fast._entries == oracle._entries


@given(
    capacity=st.integers(min_value=1, max_value=4),
    steps=st.lists(_step, min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_occupancy_invariants(capacity, steps):
    tl = CapacityTimeline(capacity, "inv")
    horizon = 0
    for step in steps:
        _apply(tl, step)
        horizon = max(horizon, *(t for t in step[1:] if isinstance(t, int)))
        # Never more live entries than capacity after a purge.
        assert tl.live_count(horizon if step[0] == "admit" else 0) <= max(
            capacity, tl.occupancy
        )
        assert tl.occupancy <= capacity
    # Far in the future everything has left.
    assert tl.live_count(10**7) == 0
    assert tl.latest_end(10**7) == 10**7


class TestUpdateEndAfterPurge:
    """The previously crashing sequence, pinned as a counted no-op."""

    @pytest.mark.parametrize(
        "cls", [CapacityTimeline, ReferenceCapacityTimeline],
        ids=["optimized", "reference"],   # the engines that run each
    )
    def test_late_update_is_noop_with_counter(self, cls):
        tl = cls(2, "svc")
        assert tl.admit(1, 10, 20)
        assert tl.purge(25) == 1          # entry 1 has left
        tl.update_end(1, 30)              # used to raise KeyError
        assert tl.late_updates == 1
        assert tl.occupancy == 0          # not resurrected
        assert tl.latest_end(25) == 25
        # Subsequent traffic is unaffected.
        assert tl.admit(2, 26, 40)
        assert tl.latest_end(26) == 40


class TestFactoryAndBasics:
    @pytest.mark.parametrize("cls", [CapacityTimeline, ReferenceCapacityTimeline])
    def test_positive_capacity_required(self, cls):
        with pytest.raises(ValueError):
            cls(0)

    def test_id_reuse_after_purge(self):
        """Stale heap pairs from a purged id must not shadow a fresh
        admission under the same id."""
        tl = CapacityTimeline(2)
        tl.admit(0, 0, 10)
        tl.update_end(0, 100)      # leaves a stale (10, 0) pair behind
        assert tl.latest_end(0) == 100
        tl.purge(200)
        tl.admit(0, 210, 220)      # same id, new interval
        assert tl.latest_end(210) == 220
        assert tl.purge(215) == 0  # stale pairs must not purge the new one
        assert tl.occupancy == 1

    def test_update_end_moves_both_directions(self):
        tl = CapacityTimeline(3)
        tl.admit(0, 0, 50)
        tl.admit(1, 0, 60)
        tl.update_end(1, 20)       # downward move
        assert tl.latest_end(0) == 50
        tl.update_end(0, 90)       # upward move
        assert tl.latest_end(0) == 90
        assert tl.purge(25) == 1   # entry 1 leaves at its moved end
