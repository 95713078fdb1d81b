"""End-to-end crash-resume proof for sweep campaigns (ISSUE 5).

A real child process runs a campaign, gets ``SIGKILL``\\ ed mid-flight
(after at least one unit has been journaled), and the parent resumes
it.  The acceptance bar:

* every unit the journal already marked ``done`` is **never
  re-simulated** (it gains no new journal row and resolves through the
  warm disk cache);
* the resumed campaign's ``summary.json`` / ``report.txt`` are
  **byte-identical** to an uninterrupted control run of the same spec.

The child deliberately slows the journal (0.4 s after each ``done``
row, before its transaction commits) so the kill reliably lands while
the campaign is mid-flight on any machine; a unit whose transaction
the kill cuts short is neither done nor journaled, and simply reruns.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import done_events

from repro.campaign import CLAIMS_NAME, CampaignRunner, ClaimQueue, SweepSpec
from repro.runtime import RuntimeOptions

SCALE = 0.08

SPEC = dict(
    name="killme",
    benchmarks=("fft", "swim"),
    schemes=("oracle", "algorithm-1"),
    scales=(SCALE,),
)

#: Child: run the campaign with a journal that naps after every done
#: row, giving the parent a wide window to SIGKILL between units.
CHILD_SCRIPT = """
import sys, time
from repro.campaign import manifest as M
from repro.campaign import CampaignRunner, SweepSpec
from repro.runtime import RuntimeOptions

_orig = M.Manifest.record_done
def _slow(self, *a, **k):
    _orig(self, *a, **k)
    time.sleep(0.4)
M.Manifest.record_done = _slow

spec = SweepSpec(
    name="killme", benchmarks=("fft", "swim"),
    schemes=("oracle", "algorithm-1"), scales=(%r,),
)
CampaignRunner(
    spec, root=sys.argv[1],
    options=RuntimeOptions(jobs=1, cache_dir=sys.argv[2]),
    chunk_size=1,
).run()
""" % SCALE


@pytest.mark.slow
def test_sigkill_then_resume_recomputes_nothing(tmp_path):
    root = tmp_path / "runs"
    cache = tmp_path / "cache"
    store = root / "killme" / CLAIMS_NAME
    spec = SweepSpec(**SPEC)
    total = len(spec.expand())
    assert total == 6

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(root), str(cache)],
        cwd=str(Path(__file__).resolve().parent.parent),
        env=env,
    )
    try:
        deadline = time.time() + 180
        while time.time() < deadline:
            if done_events(store) or proc.poll() is not None:
                break
            time.sleep(0.02)
        assert proc.poll() is None, \
            "child finished before the kill could land"
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)

    q = ClaimQueue(store)
    pre = q.manifest.state()
    q.close()
    pre_done = set(pre.done_ids)
    assert 1 <= len(pre_done) < total, \
        f"kill must land mid-flight (done: {len(pre_done)}/{total})"
    assert not pre.completes, "the killed run must not have completed"

    # --- resume in-process -------------------------------------------------
    resumed = CampaignRunner(
        spec, root=root,
        options=RuntimeOptions(jobs=1, cache_dir=str(cache)),
    ).run(resume=True)

    state = resumed.state
    assert set(state.done_ids) >= pre_done
    assert len(state.done_ids) == total
    # Zero recomputation of journaled units: they gained no new journal
    # rows (journal skip) and resolved through the warm disk cache.
    for uid in pre_done:
        assert state.units[uid].attempts == 1, \
            "a done unit must never be re-journaled on resume"
    assert resumed.stats.executed <= total - len(pre_done)
    assert resumed.stats.disk_hits >= len(pre_done)
    assert resumed.ok

    # --- byte-identical artifacts vs an uninterrupted control run ---------
    control = CampaignRunner(
        SweepSpec(**{**SPEC, "name": "control"}),
        root=tmp_path / "runs-control",
        options=RuntimeOptions(jobs=1, cache_dir=str(cache)),
    ).run()
    assert control.ok

    def _strip_identity(summary_bytes: bytes) -> dict:
        d = json.loads(summary_bytes)
        d.pop("campaign")
        return d

    resumed_summary = (root / "killme" / "summary.json").read_bytes()
    control_summary = (
        tmp_path / "runs-control" / "control" / "summary.json"
    ).read_bytes()
    assert _strip_identity(resumed_summary) \
        == _strip_identity(control_summary)
    resumed_report = (root / "killme" / "report.txt").read_text()
    control_report = (
        tmp_path / "runs-control" / "control" / "report.txt"
    ).read_text()
    assert resumed_report.replace("killme", "X") \
        == control_report.replace("control", "X")

    # And the exact interrupted-vs-not invariant: resuming the *same*
    # campaign again renders byte-identical artifacts with zero work.
    again = CampaignRunner(
        spec, root=root,
        options=RuntimeOptions(jobs=1, cache_dir=str(cache)),
    ).run(resume=True)
    assert again.stats.executed == 0
    assert (root / "killme" / "summary.json").read_bytes() \
        == resumed_summary
