"""The typed Tunables API: identity, serialization, threading, shims.

Covers ISSUE 3's satellite test matrix:

* distinct ``Tunables`` produce distinct JobKey cache digests (and the
  default record shares its digest with the legacy ``tunables=None``
  semantics only through normalization at the runner level, never at
  the key level);
* every knob actually reaches its consumer (passes, schemes, layout);
* the retired module globals (``HARD_WAIT_CAP`` etc.) are really gone
  — their deprecation shims served out their window;
* serialization round-trips and rejects unknown names.
"""

import dataclasses

import pytest

from repro import schemes as S
from repro.config import DEFAULT_CONFIG, NdcLocation
from repro.core.algorithm1 import Algorithm1
from repro.core.algorithm2 import Algorithm2
from repro.core.layout import LayoutOptimizer
from repro.core.tunables import DEFAULT_TUNABLES, Tunables
from repro.runtime.keys import JobKey


class TestRecord:
    def test_frozen_and_hashable(self):
        t = Tunables()
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.samples = 12
        assert hash(Tunables()) == hash(Tunables())
        assert Tunables() == DEFAULT_TUNABLES

    def test_replace_unknown_raises(self):
        with pytest.raises(TypeError):
            Tunables().replace(no_such_knob=1)

    def test_roundtrip(self):
        t = Tunables(min_miss_rate=0.45, cache_timeout=30)
        assert Tunables.from_dict(t.to_dict()) == t

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown tunable"):
            Tunables.from_dict({"feasibility_threshold": 0.2, "bogus": 1})

    def test_diff_and_describe(self):
        assert Tunables().diff() == {}
        assert Tunables().describe() == "tunables<default>"
        t = Tunables(reuse_k=1)
        assert t.diff() == {"reuse_k": 1}
        assert "reuse_k=1" in t.describe()

    def test_digest_distinguishes_every_knob(self):
        base = Tunables()
        digests = {base.digest()}
        for f in dataclasses.fields(Tunables):
            bumped = base.replace(**{
                f.name: getattr(base, f.name) + type(getattr(base, f.name))(1)
            })
            digests.add(bumped.digest())
        assert len(digests) == len(dataclasses.fields(Tunables)) + 1

    def test_timeouts_map(self):
        t = Tunables(cache_timeout=11, memctrl_timeout=22, memory_timeout=33)
        m = t.timeouts(DEFAULT_CONFIG)
        assert m[NdcLocation.CACHE] == 11
        assert m[NdcLocation.MEMCTRL] == 22
        assert m[NdcLocation.MEMORY] == 33
        # The network wait bound is hardware (link-buffer residence).
        assert m[NdcLocation.NETWORK] == DEFAULT_CONFIG.noc.meet_window


class TestJobKeyIdentity:
    def _key(self, tunables):
        return JobKey(
            bench="fft", variant="alg1",
            scheme_spec=S.CompilerDirected(tunables=tunables).spec(),
            label="algorithm-1", scale=0.4, config_digest="cfg",
            tunables=tunables,
        )

    def test_distinct_tunables_distinct_digests(self):
        a = self._key(None)
        b = self._key(Tunables(min_miss_rate=0.45))
        c = self._key(Tunables(min_miss_rate=0.3))
        digests = {k.cache_digest() for k in (a, b, c)}
        assert len(digests) == 3

    def test_scheme_side_tunables_fork_the_spec(self):
        # Even with identical trace-side tunables, a scheme knob change
        # must fork the key via the resolved spec.
        t = Tunables(compiler_default_timeout=45)
        a = self._key(None)
        b = JobKey(
            bench="fft", variant="alg1",
            scheme_spec=S.CompilerDirected(tunables=t).spec(),
            label="algorithm-1", scale=0.4, config_digest="cfg",
            tunables=None,
        )
        assert a.cache_digest() != b.cache_digest()

    def test_default_tunables_key_is_picklable_and_stable(self):
        import pickle

        k = self._key(Tunables(min_miss_rate=0.45))
        assert pickle.loads(pickle.dumps(k)) == k
        assert k.cache_digest() == pickle.loads(pickle.dumps(k)).cache_digest()

    def test_describe_mentions_non_default_tunables(self):
        assert "t:" in self._key(Tunables(min_miss_rate=0.45)).describe()
        assert "t:" not in self._key(None).describe()


class TestThreading:
    """Every knob reaches its consumer."""

    def test_algorithm1_consumes_tunables(self):
        t = Tunables(feasibility_threshold=0.9, network_threshold=0.95,
                     min_miss_rate=0.77, samples=16,
                     cache_timeout=7, memctrl_timeout=8, memory_timeout=9)
        a = Algorithm1(DEFAULT_CONFIG, tunables=t)
        assert a.tunables is t
        assert a.min_miss_rate == 0.77
        assert a.samples == 16
        assert a.timeouts[NdcLocation.CACHE] == 7
        assert a.timeouts[NdcLocation.MEMCTRL] == 8
        assert a.timeouts[NdcLocation.MEMORY] == 9

    def test_algorithm1_explicit_args_still_win(self):
        t = Tunables(min_miss_rate=0.77, samples=16)
        a = Algorithm1(DEFAULT_CONFIG, samples=4, min_miss_rate=0.5,
                       tunables=t)
        assert a.samples == 4
        assert a.min_miss_rate == 0.5

    def test_algorithm2_k_from_tunables(self):
        a = Algorithm2(DEFAULT_CONFIG, tunables=Tunables(reuse_k=2))
        assert a.k == 2
        assert Algorithm2(DEFAULT_CONFIG, k=1).k == 1
        with pytest.raises(ValueError):
            Algorithm2(DEFAULT_CONFIG, k=-1)

    def test_layout_scorer_inherits_tunables(self):
        t = Tunables(feasibility_threshold=0.4)
        opt = LayoutOptimizer(DEFAULT_CONFIG, tunables=t)
        assert opt.tunables is t
        assert opt._scorer.tunables is t

    def test_scheme_knobs(self):
        t = Tunables(hard_wait_cap=77, max_tracked_window=300,
                     last_wait_slack=5, oracle_margin=13,
                     oracle_wait_weight=0.5, compiler_default_timeout=21)
        assert S.WaitForever(tunables=t).wait_cap == 77
        wf = S.WaitFraction(50, tunables=t)
        assert wf.max_window == 300 and wf._limit == 150
        lw = S.LastWait(tunables=t)
        assert lw.slack == 5 and lw.max_window == 300
        mw = S.MarkovWait(tunables=t)
        assert mw._BUCKETS[-1] == 300
        o = S.OracleScheme(tunables=t)
        assert o.margin == 13 and o.wait_weight == 0.5
        assert S.CompilerDirected(tunables=t).default_timeout == 21


class TestRetiredGlobals:
    """The PEP 562 shims were removed after their deprecation window:
    the old module globals must raise, and the knobs they pointed to
    must still exist on :class:`Tunables`."""

    def test_schemes_globals_are_gone(self):
        for name in ("HARD_WAIT_CAP", "MAX_TRACKED_WINDOW"):
            with pytest.raises(AttributeError):
                getattr(S, name)
        assert DEFAULT_TUNABLES.hard_wait_cap > 0
        assert DEFAULT_TUNABLES.max_tracked_window > 0

    def test_algorithm1_globals_are_gone(self):
        from repro.core import algorithm1 as A1

        for name in ("_FEASIBILITY_THRESHOLD", "_NETWORK_THRESHOLD"):
            with pytest.raises(AttributeError):
                getattr(A1, name)
        assert 0 < DEFAULT_TUNABLES.feasibility_threshold <= 1
        assert 0 < DEFAULT_TUNABLES.network_threshold <= 1

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            S.NO_SUCH_CONSTANT
        from repro.core import algorithm1 as A1

        with pytest.raises(AttributeError):
            A1._NO_SUCH_THRESHOLD

    def test_no_module_level_tunable_constants_remain(self):
        """The ISSUE's grep check, as a test: no ALL_CAPS numeric
        constants for retired knobs in core/ or schemes.py."""
        import re
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        pattern = re.compile(
            r"^(HARD_WAIT_CAP|MAX_TRACKED_WINDOW|_FEASIBILITY_THRESHOLD"
            r"|_NETWORK_THRESHOLD)\s*=\s*[\d.]",
            re.M,
        )
        offenders = []
        for path in [src / "schemes.py", *sorted((src / "core").glob("*.py"))]:
            if pattern.search(path.read_text()):
                offenders.append(path.name)
        assert not offenders, offenders


class TestSchemeFactory:
    def test_build_scheme_labels(self):
        for label, variant in (
            ("default", "original"), ("wait-forever", "original"),
            ("oracle", "original"), ("algorithm-1", "alg1"),
            ("alg2", "alg2"), ("last-wait", "original"),
            ("wait-25%", "original"), ("original", "original"),
        ):
            entry = S.build_scheme(label)
            assert entry.label == label
            assert entry.variant == variant
            assert isinstance(entry.build(), S.NdcScheme)

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown scheme label"):
            S.build_scheme("no-such-bar")

    def test_spec_key_forks_on_tunables(self):
        t = Tunables(compiler_default_timeout=45)
        a = S.build_scheme("algorithm-1").spec_key()
        b = S.build_scheme("algorithm-1", t).spec_key()
        assert a != b
        assert a[:2] == b[:2] == ("algorithm-1", "alg1")

    def test_factories_build_fresh_instances(self):
        entry = S.build_scheme("last-wait")
        assert entry.build() is not entry.build()
