"""The auto-calibration subsystem: objective, artifact, search.

Covers ISSUE 3's satellite test matrix for :mod:`repro.tuning`:

* objective units — any ordering violation loses to any
  ordering-satisfying configuration, regardless of distance;
* the versioned ``calibrated.json`` artifact round-trips, stores only
  the diff from defaults, and preserves other scales;
* tuning determinism — the same seed and grid always elect the same
  winner;
* the shipped scale-0.4 calibration satisfies the paper's ordering
  (fast pin on the stored geomeans, slow re-measurement of the full
  suite).
"""

import json

import pytest

from repro.core.tunables import Tunables
from repro.tuning import (
    CALIBRATED_PATH,
    CALIBRATION_SCHEMA,
    SMOKE_BENCHMARKS,
    SMOKE_GRID,
    Score,
    Tuner,
    calibrated_tunables,
    load_calibrations,
    ordering_violations,
    paper_distance,
    save_calibration,
    scale_key,
    score_geomeans,
)

#: The paper's own Fig. 4 geomeans — by construction feasible.
PAPER_SHAPE = {
    "default": -16.7, "oracle": 29.3,
    "algorithm-1": 22.5, "algorithm-2": 25.2,
}


class TestObjective:
    def test_paper_shape_is_feasible(self):
        assert ordering_violations(PAPER_SHAPE) == []
        s = score_geomeans(PAPER_SHAPE)
        assert s.feasible
        assert s.distance == pytest.approx(0.0)

    @pytest.mark.parametrize("mutation, name", [
        ({"algorithm-1": 26.0}, "alg2>=alg1"),
        ({"algorithm-2": 30.0}, "oracle>=alg2"),
        ({"algorithm-1": -1.0}, "alg1>0"),
        ({"default": 4.0}, "0>wait-forever"),
    ])
    def test_each_constraint_detected(self, mutation, name):
        assert name in ordering_violations({**PAPER_SHAPE, **mutation})

    def test_magnitude_guard(self):
        # Flattening every bar to noise satisfies the ordering but
        # reproduces nothing; the oracle floor catches it.
        flat = {"default": -0.01, "oracle": 0.03,
                "algorithm-1": 0.01, "algorithm-2": 0.02}
        assert "oracle-magnitude" in ordering_violations(flat)

    def test_missing_labels_are_violations(self):
        out = ordering_violations({"oracle": 10.0})
        assert "missing:algorithm-1" in out
        assert "missing:default" in out

    def test_violation_always_loses(self):
        """The lexicographic property: a far-but-feasible candidate
        beats a near-but-violating one."""
        feasible_far = score_geomeans({
            "default": -1.0, "oracle": 2.0,
            "algorithm-1": 0.5, "algorithm-2": 1.0,
        })
        violating_close = score_geomeans({**PAPER_SHAPE, "default": 16.7})
        assert feasible_far.feasible
        assert not violating_close.feasible
        assert feasible_far.distance > violating_close.distance
        assert feasible_far < violating_close

    def test_score_ordering_and_reporting(self):
        assert Score(0, 1e9) < Score(1, 0.0)
        assert Score(1, 0.5) < Score(2, 0.0)
        assert Score(0, 0.1) < Score(0, 0.2)
        s = Score(1, 0.5, violated=("alg1>0",))
        assert "alg1>0" in s.describe()
        assert "ok(" in Score(0, 0.25).describe()

    def test_paper_distance_edge_cases(self):
        assert paper_distance({}) == float("inf")
        assert paper_distance({"no-such-label": 1.0}) == float("inf")
        assert paper_distance(PAPER_SHAPE) == pytest.approx(0.0)
        # Small targets are guarded by the max(1, |want|) denominator.
        assert paper_distance({"oracle": 1.0}, {"oracle": 0.1}) == \
            pytest.approx(0.9)


class TestCalibrationArtifact:
    def test_scale_key_canonical(self):
        assert scale_key(0.4) == scale_key(0.40) == "0.4"
        assert scale_key(1.0) == "1"

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "calibrated.json"
        t = Tunables(min_miss_rate=0.45, cache_timeout=30)
        save_calibration(
            0.4, t, seed=3, score={"violations": 0, "distance": 1.0},
            geomeans={"algorithm-1": 0.63}, date="2026-08-06", path=p,
        )
        assert calibrated_tunables(0.4, p) == t
        assert calibrated_tunables(0.40, p) == t
        assert calibrated_tunables(0.25, p) is None
        # Only the diff from the defaults is stored.
        data = json.loads(p.read_text())
        assert data["schema"] == CALIBRATION_SCHEMA
        assert data["entries"]["0.4"]["tunables"] == {
            "min_miss_rate": 0.45, "cache_timeout": 30,
        }

    def test_preserves_other_scales(self, tmp_path):
        p = tmp_path / "calibrated.json"
        save_calibration(0.2, Tunables(reuse_k=1), seed=0, score={},
                         geomeans={}, date="d", path=p)
        save_calibration(0.4, Tunables(samples=16), seed=0, score={},
                         geomeans={}, date="d", path=p)
        assert calibrated_tunables(0.2, p) == Tunables(reuse_k=1)
        assert calibrated_tunables(0.4, p) == Tunables(samples=16)

    def test_default_entry_is_explicitly_empty(self, tmp_path):
        p = tmp_path / "calibrated.json"
        save_calibration(0.1, Tunables(), seed=0, score={}, geomeans={},
                         date="d", path=p)
        assert json.loads(p.read_text())["entries"]["0.1"]["tunables"] == {}
        assert calibrated_tunables(0.1, p) == Tunables()

    def test_missing_file_is_safe(self, tmp_path):
        p = tmp_path / "nope.json"
        assert load_calibrations(p) == {}
        assert calibrated_tunables(0.4, p) is None

    def test_schema_mismatch_raises(self, tmp_path):
        p = tmp_path / "calibrated.json"
        p.write_text(json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_calibrations(p)

    @pytest.mark.parametrize("scale", [0.4, 0.25])
    def test_shipped_artifact_pins_tuned_scales(self, scale):
        """The in-tree calibration: present, feasible, ordered — at
        both tuned scales (0.4 = EXPERIMENTS.md, 0.25 = the drivers'
        default scale)."""
        assert CALIBRATED_PATH.exists(), "in-tree calibrated.json missing"
        entries = load_calibrations()
        key = scale_key(scale)
        assert key in entries
        entry = entries[key]
        assert entry["score"]["violations"] == 0
        g = entry["geomeans"]
        assert g["oracle"] >= g["algorithm-2"] >= g["algorithm-1"] > 0
        assert g["default"] < 0
        t = calibrated_tunables(scale)
        assert t is not None and not t.is_default


class TestTunerSearch:
    def _run(self, cache_dir, seed=0):
        from repro.runtime import RuntimeOptions

        tuner = Tuner(
            scale=0.1, seed=seed, grid=SMOKE_GRID, samples=2, survivors=1,
            cheap_benchmarks=SMOKE_BENCHMARKS,
            full_benchmarks=SMOKE_BENCHMARKS,
            runtime=RuntimeOptions(jobs=1, cache_dir=cache_dir),
        )
        try:
            return tuner.run()
        finally:
            tuner.close()

    def test_deterministic_winner(self, tmp_path):
        """Same seed + grid => same winner (the ISSUE's determinism
        pin).  The second run is served from the persistent cache."""
        cache = str(tmp_path / "cache")
        r1 = self._run(cache)
        r2 = self._run(cache)
        assert r1.best.digest() == r2.best.digest()
        assert r1.best_score == r2.best_score
        assert r1.best_geomeans == r2.best_geomeans
        assert [e.tunables.digest() for e in r1.finalists] == \
            [e.tunables.digest() for e in r2.finalists]

    def test_rejects_unknown_grid_knob(self):
        with pytest.raises(ValueError, match="unknown tunables"):
            Tuner(grid={"no_such_knob": (1, 2)})

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            Tuner(samples=0)
        with pytest.raises(ValueError):
            Tuner(survivors=0)


@pytest.mark.slow
@pytest.mark.parametrize("scale", [0.4, 0.25])
def test_calibrated_scale_ordering_regression(tmp_path, scale):
    """Re-measure the shipped calibrations on the full suite over the
    seven-scheme cast (the headline four plus ``coda``/``nmpo``; ISSUE
    10 extends the ISSUE 3/5 gate): the paper's ordering must hold with
    zero violations, and the profile-guided ``nmpo`` must land between
    the realizable compiler bound (alg2) and the oracle."""
    from repro.runtime import RuntimeOptions
    from repro.schemes import SHOOTOUT_LINEUP
    from repro.workloads.suite import BENCHMARK_NAMES

    t = calibrated_tunables(scale)
    assert t is not None, f"in-tree calibrated.json has no {scale} entry"
    tuner = Tuner(
        scale=scale,
        lineup=SHOOTOUT_LINEUP,
        runtime=RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache")),
    )
    try:
        ev = tuner.evaluate(t, BENCHMARK_NAMES)
    finally:
        tuner.close()
    assert ev.score.feasible, ev.score.describe()
    g = ev.geomeans
    assert g["oracle"] >= g["algorithm-2"] >= g["algorithm-1"] > 0
    assert g["default"] < 0
    assert g["coda"] >= g["algorithm-2"]
    assert g["algorithm-2"] <= g["nmpo"] <= g["oracle"]
