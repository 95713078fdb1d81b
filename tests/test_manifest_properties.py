"""Property tests for the journal fold.

The journal is the ``journal`` table of a campaign store, and each
``unit`` event commits together with its claim-row change or not at
all, so there is no torn state to replay.  What these hypothesis
properties pin is the fold, for *every* sequence of terminal unit
events rather than the hand-picked ones in the example-based suites:

* the table holds exactly the events written, in order;
* the folded per-unit state (done/failed, attempt counts) matches a
  reference fold of those events, so the done-set can never
  double-count a unit;
* done and failed partition the folded units.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.queue import ClaimQueue

#: (unit_id, succeeded?) — a terminal unit event in the journal.
EVENTS = st.lists(
    st.tuples(st.sampled_from(["ua", "ub", "uc"]), st.booleans()),
    max_size=10,
)


def _reference_fold(events):
    """Last-event-wins per-unit fold, independent of Manifest.state()."""
    units = {}
    for uid, done in events:
        _, attempts = units.get(uid, ("pending", 0))
        units[uid] = ("done" if done else "failed", attempts + 1)
    return units


@settings(max_examples=40, deadline=None)
@given(events=EVENTS)
def test_done_set_never_double_counts(events):
    """However often a unit is journaled, it appears in done_ids at
    most once, done/failed partition the folded units, and the fold
    equals a reference fold of the events the table holds."""
    queue = ClaimQueue(":memory:")
    m = queue.manifest
    m.write_header("prop", "digest", 3)
    session = m.start_session()
    for i, (uid, done) in enumerate(events, start=1):
        if done:
            m.record_done(uid, f"d-{uid}", 0.5, i, session)
        else:
            m.record_failed(uid, "boom", i, session)

    rows = queue._db.execute(
        "SELECT unit, status FROM journal WHERE kind='unit' ORDER BY seq"
    ).fetchall()
    assert rows == [(uid, "done" if done else "failed")
                    for uid, done in events]

    state = m.state()
    expected = _reference_fold(events)
    assert {
        uid: (st_.status, st_.attempts) for uid, st_ in state.units.items()
    } == expected
    done = state.done_ids
    assert len(done) == len(set(done))
    assert set(done) == {
        uid for uid, (status, _) in expected.items() if status == "done"
    }
    assert set(done).isdisjoint(state.failed_ids)
    assert set(done) | set(state.failed_ids) == set(state.units)
    assert state.sessions == 1 and state.header is not None
    queue.close()
