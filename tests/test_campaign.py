"""Campaign subsystem tests (ISSUE 5 tentpole).

The acceptance-critical pin lives in :class:`TestJobKeyParity`: the
campaign layer derives the **same** cache digests as
:class:`~repro.analysis.experiments.ExperimentRunner` for every lineup
bar — the cache schema stays v3 and a sweep shares cache entries with
interactive drivers.  The rest covers spec expansion/serde, the
journal in the campaign store, runner execution with failure isolation
+ capped backoff, resume idempotence, refusal of stores from before the
journal moved in, and the run registry.
"""

import json
import sqlite3

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.campaign import (
    BASELINE_LABEL,
    CLAIMS_NAME,
    CampaignError,
    CampaignInfo,
    CampaignRunner,
    ClaimQueue,
    QueueError,
    RunRegistry,
    SweepSpec,
    SweepUnit,
    lineup_units,
    normalize_tunables,
)
from repro.config import DEFAULT_CONFIG
from repro.core.tunables import Tunables
from repro.runtime import (
    ParallelRunner,
    RunnerStats,
    RuntimeOptions,
    config_digest,
    job_key,
)
from repro.tuning import resolve_tunables

SCALE = 0.08


# ---------------------------------------------------------------------------
# JobKey digest parity: the campaign layer never forks cache keys
# ---------------------------------------------------------------------------
class TestJobKeyParity:
    """Cache schema stays v3 — campaign keys == ExperimentRunner keys."""

    def test_baseline_digest_matches_experiment_runner(self):
        er = ExperimentRunner(cfg=DEFAULT_CONFIG, scale=0.1)
        a = er.job_key("fft")
        b = SweepUnit("fft", BASELINE_LABEL, scale=0.1).job_key()
        assert a.cache_digest() == b.cache_digest()

    def test_every_lineup_bar_digest_matches(self):
        """All Fig. 4 bars, under the default (calibrated) tunables."""
        er = ExperimentRunner(cfg=DEFAULT_CONFIG, scale=0.1)
        for label, factory, variant in er.fig4_entries():
            if label == BASELINE_LABEL:
                continue
            a = er.job_key("swim", factory, variant)
            b = SweepUnit("swim", label, scale=0.1).job_key()
            assert a.cache_digest() == b.cache_digest(), (
                f"campaign digest forked from the driver's for {label!r}"
            )

    def test_explicit_tunables_digest_matches(self):
        t = Tunables().replace(cache_timeout=60)
        er = ExperimentRunner(cfg=DEFAULT_CONFIG, scale=0.1, tunables=t)
        diff = normalize_tunables(t)
        for label, factory, variant in er.fig4_entries():
            if label == BASELINE_LABEL:
                continue
            a = er.job_key("fft", factory, variant)
            b = SweepUnit("fft", label, scale=0.1, tunables=diff).job_key()
            assert a.cache_digest() == b.cache_digest(), label

    def test_baseline_ignores_tunables(self):
        """Baselines consult no tunables — one cache entry for all."""
        diff = normalize_tunables(Tunables().replace(cache_timeout=60))
        a = SweepUnit("fft", BASELINE_LABEL, SCALE, tunables=None).job_key()
        b = job_key(
            "fft", scale=SCALE, config_digest=config_digest(DEFAULT_CONFIG),
            tunables=resolve_tunables(Tunables().replace(**dict(diff)), SCALE),
        )
        assert a.cache_digest() == b.cache_digest()

    def test_engine_profile_not_in_digest(self):
        """Profiles are pinned cycle-identical; they share cache keys."""
        a = SweepUnit("fft", "oracle", SCALE,
                      engine_profile="optimized").job_key()
        b = SweepUnit("fft", "oracle", SCALE,
                      engine_profile="reference").job_key()
        assert a.cache_digest() == b.cache_digest()

    def test_default_tunables_normalize_to_none(self):
        """An explicit all-defaults override cannot fork the cache."""
        assert normalize_tunables(Tunables()) == ()
        assert resolve_tunables(Tunables(), SCALE) is None


# ---------------------------------------------------------------------------
# SweepSpec: validation, expansion, serialization
# ---------------------------------------------------------------------------
class TestSweepSpec:
    def test_expand_counts_and_dedup(self):
        spec = SweepSpec(
            benchmarks=("fft", "swim"),
            schemes=("oracle", "algorithm-1"),
            scales=(0.1, 0.2),
        )
        units = spec.expand()
        # per scale: 2 baselines + 2 benches * 2 schemes = 6
        assert len(units) == 12
        assert len({u.unit_id for u in units}) == len(units)

    def test_baselines_expand_first_per_group(self):
        units = SweepSpec(benchmarks=("fft",), schemes=("oracle",)).expand()
        assert units[0].label == BASELINE_LABEL

    def test_baseline_shared_across_tunables_overrides(self):
        spec = SweepSpec(
            benchmarks=("fft",), schemes=("oracle",),
            tunables=(None, (("cache_timeout", 60),)),
        )
        units = spec.expand()
        baselines = [u for u in units if u.label == BASELINE_LABEL]
        assert len(baselines) == 1, "baselines must not fork per override"
        assert len(units) == 3

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            SweepSpec(benchmarks=("doom",))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(Exception):
            SweepSpec(schemes=("warp-drive",))

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            SweepSpec(scales=(1.5,))

    def test_unknown_engine_profile_rejected(self):
        with pytest.raises(ValueError, match="engine profile"):
            SweepSpec(engine_profiles=("turbo",))

    def test_unknown_tunable_rejected(self):
        with pytest.raises(Exception):
            SweepSpec(tunables=((("warp_factor", 9),),))

    def test_round_trip_through_dict(self):
        spec = SweepSpec(
            name="demo", benchmarks=("fft",), schemes=("oracle",),
            scales=(0.1,), meshes=((6, 6),),
            tunables=(normalize_tunables({"cache_timeout": 60}),),
        )
        again = SweepSpec.from_dict(spec.to_json_dict())
        assert again == spec
        assert again.spec_digest() == spec.spec_digest()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sweep-spec field"):
            SweepSpec.from_dict({"benchmarks": ["fft"], "bench": ["fft"]})

    def test_load_json_and_toml(self, tmp_path):
        spec = SweepSpec(benchmarks=("fft",), schemes=("oracle",))
        jpath = tmp_path / "spec.json"
        jpath.write_text(json.dumps(spec.to_json_dict()))
        assert SweepSpec.load(jpath) == spec
        pytest.importorskip("tomllib")
        tpath = tmp_path / "spec.toml"
        tpath.write_text(
            'benchmarks = ["fft"]\nschemes = ["oracle"]\n'
            'scales = [0.25]\nmeshes = ["5x5"]\n'
        )
        tspec = SweepSpec.load(tpath)
        assert tspec.benchmarks == ("fft",)
        assert tspec.meshes == ((5, 5),)

    def test_campaign_id_is_content_hash_unless_named(self):
        a = SweepSpec(benchmarks=("fft",))
        b = SweepSpec(benchmarks=("swim",))
        assert a.campaign_id != b.campaign_id
        assert a.campaign_id.startswith("sweep-")
        assert SweepSpec(name="x", benchmarks=("fft",)).campaign_id == "x"

    def test_name_does_not_change_spec_digest(self):
        a = SweepSpec(name="a", benchmarks=("fft",))
        b = SweepSpec(name="b", benchmarks=("fft",))
        assert a.spec_digest() == b.spec_digest()

    def test_mesh_parsing(self):
        spec = SweepSpec.from_dict({"meshes": ["6x6", None]})
        assert spec.meshes == ((6, 6), None)
        with pytest.raises(ValueError, match="bad mesh"):
            SweepSpec.from_dict({"meshes": ["six-by-six"]})

    def test_lineup_units_calibrated_default_flag(self):
        """calibrated_default=False pins the *actual* defaults (diff ())
        — the tuner must never silently measure the shipped
        calibration."""
        units = lineup_units(
            ["fft"], ["oracle"], SCALE, calibrated_default=False
        )
        scheme_units = [u for u in units if u.label != BASELINE_LABEL]
        assert all(u.tunables == () for u in scheme_units)
        driver = lineup_units(["fft"], ["oracle"], SCALE)
        assert all(
            u.tunables is None
            for u in driver if u.label != BASELINE_LABEL
        )


# ---------------------------------------------------------------------------
# Manifest: the journal table of a campaign store, folding
# ---------------------------------------------------------------------------
def _journal():
    """The journal of a fresh in-memory campaign store."""
    return ClaimQueue(":memory:").manifest


class TestManifest:
    def test_in_memory_fold(self):
        m = _journal()
        m.write_header("c", "digest", 2)
        s = m.start_session()
        m.record_done("u1", "d1", 0.5, 1, s)
        m.record_failed("u2", "boom", 1, s)
        st = m.state()
        assert st.unit("u1").done and st.unit("u1").digest == "d1"
        assert st.unit("u2").status == "failed"
        assert st.unit("u2").error == "boom"
        assert st.sessions == 1
        assert st.header["total_units"] == 2

    def test_last_event_wins(self):
        m = _journal()
        m.record_failed("u1", "boom", 1, 1)
        m.record_done("u1", "d1", 0.1, 2, 1)
        st = m.state().unit("u1")
        assert st.done and st.error is None and st.attempts == 2

    def test_header_idempotent(self):
        m = _journal()
        m.write_header("c", "d", 2)
        m.write_header("c", "d", 2)
        assert sum(
            1 for e in m.events() if e.get("event") == "header"
        ) == 1

    def test_persists_and_replays(self, tmp_path):
        path = tmp_path / CLAIMS_NAME
        q = ClaimQueue(path)
        m = q.manifest
        m.write_header("c", "digest", 1)
        s = m.start_session()
        m.record_done("u1", "d1", 0.25, 1, s)
        q.close()
        again = ClaimQueue(path)
        assert again.manifest.done_ids() == {"u1"}
        assert again.manifest.sessions == 1
        again.close()


# ---------------------------------------------------------------------------
# CampaignRunner execution
# ---------------------------------------------------------------------------
class _FlakyEngine:
    """Engine facade: chunk fan-out always breaks; the chosen bench's
    *scheme* job (never its baseline) fails serially for its first
    ``failures`` attempts, then succeeds."""

    def __init__(self, fail_bench=None, failures=0):
        self.stats = RunnerStats()
        self._real = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1), stats=self.stats
        )
        self._fail_bench = fail_bench
        self._remaining = failures

    def run_many(self, keys):
        raise RuntimeError("injected chunk failure")

    def run(self, key, **kwargs):
        if (key.bench == self._fail_bench
                and key.scheme_spec is not None
                and self._remaining > 0):
            self._remaining -= 1
            raise ValueError("injected unit failure")
        return self._real.run(key, **kwargs)

    def close(self):
        self._real.close()


class TestCampaignRunner:
    def test_in_memory_run_produces_summary_and_report(self):
        spec = SweepSpec(
            benchmarks=("fft",), schemes=("oracle",), scales=(SCALE,)
        )
        res = CampaignRunner(spec).run()
        assert res.ok
        assert res.summary["completed_units"] == 2
        assert res.summary["groups"][0]["geomean"]["oracle"] != 0
        assert "oracle" in res.report and "fft" in res.report
        assert res.root is None

    def test_retry_recovers_with_backoff(self):
        spec = SweepSpec(
            benchmarks=("fft", "swim"), schemes=("oracle",),
            scales=(SCALE,),
        )
        sleeps = []
        runner = CampaignRunner(
            spec, engine=_FlakyEngine("swim", failures=2),
            max_attempts=3, backoff_base=0.25, backoff_cap=10.0,
            sleep=sleeps.append,
        )
        res = runner.run()
        assert res.ok, "the unit must recover within max_attempts"
        # Two failed rounds -> two capped-exponential backoff sleeps.
        assert sleeps == [0.25, 0.5]
        # Every chunk fell back to per-unit reruns, and said why.
        assert res.stats.fallbacks
        assert set(res.stats.fallbacks) == {
            "RuntimeError: injected chunk failure"
        }
        assert "injected chunk failure" in res.stats.render()
        swim = [
            u for u in spec.expand()
            if u.bench == "swim" and u.label != BASELINE_LABEL
        ][0]
        st = res.state.unit(swim.unit_id)
        assert st.done and st.attempts == 3

    def test_journaled_wall_is_the_units_own_timing(self):
        """Units whose ``JobKey.describe()`` strings coincide (they omit
        the scale) must each journal the runtime's timing of their own
        key, never their twin's."""
        spec = SweepSpec(
            benchmarks=("fft", "swim"), schemes=("oracle",),
            scales=(SCALE, 0.1),
        )
        res = CampaignRunner(spec).run()
        assert res.ok
        timed = dict(res.stats.job_times)
        units = spec.expand()
        assert len(units) == len(timed) == 8
        for unit in units:
            own = timed[unit.job_key(DEFAULT_CONFIG)]
            assert res.state.unit(unit.unit_id).wall == round(own, 6), \
                unit.describe()

    def test_backoff_is_capped(self):
        runner = CampaignRunner(backoff_base=0.5, backoff_cap=2.0)
        assert runner._backoff(1) == 0.5
        assert runner._backoff(10) == 2.0

    def test_exhausted_unit_fails_alone(self):
        """One diverging unit fails itself, never its chunk-mates."""
        spec = SweepSpec(
            benchmarks=("fft", "swim"), schemes=("oracle",),
            scales=(SCALE,),
        )
        runner = CampaignRunner(
            spec, engine=_FlakyEngine("swim", failures=99),
            max_attempts=2, sleep=lambda _s: None,
        )
        res = runner.run()
        assert not res.ok
        failed = res.summary["failed"]
        assert [f["describe"] for f in failed] == ["swim/oracle/s0.08"]
        assert "injected unit failure" in failed[0]["error"]
        assert failed[0]["attempts"] == 2
        # The chunk-mates (both baselines + fft/oracle) all completed.
        assert res.summary["completed_units"] == 3
        assert any(r["bench"] == "fft" for r in res.summary["units"])
        assert "failed units:" in res.report

    def test_run_without_spec_raises(self):
        with pytest.raises(CampaignError, match="needs a SweepSpec"):
            CampaignRunner().run()

    def test_resume_without_root_raises(self):
        spec = SweepSpec(benchmarks=("fft",), schemes=("oracle",))
        with pytest.raises(CampaignError, match="campaign directory"):
            CampaignRunner(spec).run(resume=True)


class TestCampaignDirectory:
    def _options(self, tmp_path):
        return RuntimeOptions(
            jobs=1, cache_dir=str(tmp_path / "cache")
        )

    def _spec(self):
        return SweepSpec(
            name="dir-demo", benchmarks=("fft", "swim"),
            schemes=("oracle",), scales=(SCALE,),
        )

    def test_run_materializes_artifacts(self, tmp_path):
        spec, opts = self._spec(), self._options(tmp_path)
        res = CampaignRunner(spec, root=tmp_path / "runs",
                             options=opts).run()
        cdir = tmp_path / "runs" / "dir-demo"
        assert res.root == cdir
        for name in ("spec.json", CLAIMS_NAME, "summary.json",
                     "report.txt"):
            assert (cdir / name).exists(), name
        assert SweepSpec.load(cdir / "spec.json") == spec
        assert res.stats.executed == 4

    def test_rerun_without_resume_flag_raises(self, tmp_path):
        spec, opts = self._spec(), self._options(tmp_path)
        CampaignRunner(spec, root=tmp_path / "runs", options=opts).run()
        with pytest.raises(CampaignError, match="already has progress"):
            CampaignRunner(
                spec, root=tmp_path / "runs", options=opts
            ).run()

    def test_spec_digest_mismatch_raises(self, tmp_path):
        opts = self._options(tmp_path)
        CampaignRunner(self._spec(), root=tmp_path / "runs",
                       options=opts).run()
        other = SweepSpec(name="dir-demo", benchmarks=("fft",),
                          schemes=("oracle",), scales=(SCALE,))
        with pytest.raises(CampaignError, match="different"):
            CampaignRunner(other, root=tmp_path / "runs",
                           options=opts).run()

    def test_resume_without_manifest_raises(self, tmp_path):
        spec = self._spec()
        (tmp_path / "runs" / "dir-demo").mkdir(parents=True)
        with pytest.raises(CampaignError, match="no manifest"):
            CampaignRunner(
                spec, root=tmp_path / "runs",
                options=self._options(tmp_path),
            ).run(resume=True)

    def test_resume_is_idempotent_and_byte_identical(self, tmp_path):
        """A resumed complete campaign re-simulates nothing and renders
        the exact same artifacts."""
        spec, opts = self._spec(), self._options(tmp_path)
        root = tmp_path / "runs"
        res1 = CampaignRunner(spec, root=root, options=opts).run()
        summary1 = (root / "dir-demo" / "summary.json").read_bytes()
        report1 = (root / "dir-demo" / "report.txt").read_bytes()

        res2 = CampaignRunner(spec, root=root, options=opts).run(
            resume=True
        )
        assert res2.stats.executed == 0, \
            "resume of a complete campaign must re-simulate nothing"
        assert res2.stats.disk_hits == 4
        assert res2.summary == res1.summary
        assert (root / "dir-demo" / "summary.json").read_bytes() \
            == summary1
        assert (root / "dir-demo" / "report.txt").read_bytes() == report1
        # Done units got no new journal rows; only a session marker.
        state = res2.state
        assert all(u.attempts == 1 for u in state.units.values())
        assert state.sessions == 2

    def test_resume_skips_done_units_via_manifest(self, tmp_path):
        """A partial journal's done units are never re-journaled."""
        spec, opts = self._spec(), self._options(tmp_path)
        root = tmp_path / "runs"
        # Produce a complete campaign, then rewind its store to the
        # first done unit (exactly what a kill mid-flight leaves): the
        # later unit events and the complete marker go, and so do the
        # later units' claim rows.
        CampaignRunner(spec, root=root, options=opts).run()
        db = sqlite3.connect(root / "dir-demo" / CLAIMS_NAME)
        (first,) = db.execute(
            "SELECT MIN(seq) FROM journal WHERE kind='unit'"
        ).fetchone()
        db.execute(
            "DELETE FROM journal WHERE (kind='unit' AND seq>?)"
            " OR kind='complete'", (first,),
        )
        db.execute(
            "UPDATE units SET status='open', owner=NULL, attempts=0"
            " WHERE unit_id NOT IN (SELECT unit FROM journal"
            " WHERE kind='unit')"
        )
        db.commit()
        db.close()
        (root / "dir-demo" / "summary.json").unlink()

        res = CampaignRunner(spec, root=root, options=opts).run(
            resume=True
        )
        state = res.state
        assert len(state.done_ids) == 4
        assert all(u.attempts == 1 for u in state.units.values())
        assert res.stats.executed == 0, \
            "warm cache must serve the rewound units"
        assert (root / "dir-demo" / "summary.json").exists()

    def test_resume_refuses_a_store_without_journal(self, tmp_path):
        """A store written before the journal moved in (a claim table
        with every row ``done``, no journal table, ``manifest.jsonl``
        beside it) must be refused, not resumed as an empty journal:
        the artifacts stay untouched."""
        spec, opts = self._spec(), self._options(tmp_path)
        cdir = tmp_path / "runs" / "dir-demo"
        cdir.mkdir(parents=True)
        (cdir / "spec.json").write_text(
            json.dumps(spec.to_json_dict(), indent=2, sort_keys=True)
        )
        db = sqlite3.connect(cdir / CLAIMS_NAME)
        db.execute("CREATE TABLE units (unit_id TEXT PRIMARY KEY,"
                   " status TEXT NOT NULL DEFAULT 'open')")
        db.executemany(
            "INSERT INTO units VALUES (?, 'done')",
            [(u.unit_id,) for u in spec.expand()],
        )
        db.commit()
        db.close()
        (cdir / "manifest.jsonl").write_text(
            '{"event": "header", "total_units": 4}\n'
        )
        (cdir / "summary.json").write_text('{"completed_units": 4}\n')

        with pytest.raises(QueueError, match="new name"):
            CampaignRunner(spec, root=cdir.parent, options=opts).run(
                resume=True
            )
        assert (cdir / "summary.json").read_text() \
            == '{"completed_units": 4}\n'
        registry = RunRegistry(cdir.parent)
        assert registry.info("dir-demo").status == "corrupt"
        with pytest.raises(QueueError, match=CLAIMS_NAME):
            registry.status("dir-demo")


# ---------------------------------------------------------------------------
# RunRegistry
# ---------------------------------------------------------------------------
class TestRunRegistry:
    def _populate(self, tmp_path):
        opts = RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache"))
        root = tmp_path / "runs"
        spec = SweepSpec(name="reg-demo", benchmarks=("fft",),
                         schemes=("oracle",), scales=(SCALE,))
        CampaignRunner(spec, root=root, options=opts).run()
        return root

    def test_list_and_info(self, tmp_path):
        root = self._populate(tmp_path)
        reg = RunRegistry(root)
        rows = reg.list()
        assert [r.campaign_id for r in rows] == ["reg-demo"]
        info = rows[0]
        assert isinstance(info, CampaignInfo)
        assert info.status == "complete"
        assert info.total_units == 2 and info.done == 2
        assert info.sessions == 1

    def test_status_blob(self, tmp_path):
        reg = RunRegistry(self._populate(tmp_path))
        blob = reg.status("reg-demo")
        assert blob["status"] == "complete"
        assert blob["done"] == 2 and blob["pending"] == 0
        assert blob["last_complete"]["done"] == 2

    def test_spec_summary_report_accessors(self, tmp_path):
        reg = RunRegistry(self._populate(tmp_path))
        assert reg.spec("reg-demo").benchmarks == ("fft",)
        assert reg.summary("reg-demo")["completed_units"] == 2
        assert "oracle" in reg.report("reg-demo")
        assert reg.summary("nope-404") is None

    def test_gc(self, tmp_path):
        root = self._populate(tmp_path)
        reg = RunRegistry(root)
        assert reg.gc(dry_run=True) == ["reg-demo"]
        assert reg.exists("reg-demo"), "dry run must not delete"
        assert reg.gc(complete_only=True) == ["reg-demo"]
        assert not reg.exists("reg-demo")
        assert reg.list() == []

    def test_default_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert RunRegistry().root == tmp_path / "elsewhere"
