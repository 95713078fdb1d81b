"""Workloads of the end-to-end benchmark and the checks on their outputs.

A workload is one call shape of a public :mod:`repro.api` verb with
default runtime options (``jobs=1``, batch on, default engine profile).
One *pass* is one call; the harness makes a cold pass into empty
caches and then warm passes that must be answered from the cache the
cold pass filled.  Benchmark and scheme names are written out here, not
read from the program's registries, so the benchmark keeps measuring
the same work when the program's defaults change.

The seed only shuffles the order in which benchmarks and scheme labels
are handed to the program.  That changes how cache and LRU use
interleave, never which results come out, so one ``expected.json``
holds for every seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: The label of the no-NDC baseline every improvement is measured against.
BASELINE = "original"

#: Every warm pass count starts here; untraced runs add passes until the
#: warm phase has lasted ``--seconds``.
MIN_WARM_PASSES = 20

AFFINE = (
    "md", "bwaves", "nab", "bt", "fma3d", "swim", "imagick", "mgrid",
    "applu", "smith.wa", "kdtree", "barnes", "cholesky", "fft", "lu",
    "ocean", "radiosity", "raytrace", "volrend", "water",
)
SPARSE = ("spmv.csr", "hashjoin", "bfs.frontier")
MIXED = ("mix.md.spmv", "mix.fft.hash", "mix.swim.bfs")

#: The paper's nine Fig. 4 bars.
FIG4_BARS = (
    "default", "oracle", "wait-5%", "wait-10%", "wait-25%", "wait-50%",
    "last-wait", "algorithm-1", "algorithm-2",
)
#: The seven-scheme shootout cast (six bars plus the baseline).
SHOOTOUT_BARS = (
    "default", "oracle", "algorithm-1", "algorithm-2", "coda", "nmpo",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which verb, over what, and why."""

    name: str
    why: str
    verb: str                      #: ``"lineup"`` or ``"sweep"``
    benchmarks: Tuple[str, ...]
    bars: Tuple[str, ...]          #: scheme labels; the baseline is implicit
    scales: Tuple[float, ...]
    #: sweep through an on-disk campaign root (claim queue + manifest
    #: journal) instead of the in-memory ``submit`` path
    campaign: bool = False

    @property
    def units(self) -> int:
        """Simulation units per pass (every bar plus the baseline)."""
        return len(self.scales) * len(self.benchmarks) * (1 + len(self.bars))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig4-affine",
            "the paper's headline job: the Fig. 4 lineup over the 20 "
            "affine benchmarks at 0.4, 200 simulations sharing 60 traces",
            "lineup", AFFINE, FIG4_BARS, (0.4,),
        ),
        Workload(
            "shootout-families",
            "seven-scheme sparse+mixed campaign through the claim queue "
            "and journal; the only nmpo warm-up and coda placement load",
            "sweep", SPARSE + MIXED, SHOOTOUT_BARS, (0.4, 1.0),
            campaign=True,
        ),
        Workload(
            "alg2-scales",
            "in-memory algorithm-2 sweep over all 26 benchmarks at two "
            "scales: every trace used once, so per-trace sharing gets "
            "nothing back",
            "sweep", AFFINE + SPARSE + MIXED, ("algorithm-2",),
            (0.25, 0.6),
        ),
    )
}

#: Small workloads for the harness's own tests (not part of the
#: benchmark's workload list): two benchmarks at scale 0.1, one per
#: verb shape.
TEST_WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tiny-lineup", "harness test: lineup path",
            "lineup", ("fft", "swim"), ("oracle", "algorithm-2"), (0.1,),
        ),
        Workload(
            "tiny-sweep", "harness test: campaign path",
            "sweep", ("spmv.csr", "fft"), ("algorithm-1", "coda", "nmpo"),
            (0.1,), campaign=True,
        ),
    )
}

ALL_WORKLOADS: Dict[str, Workload] = {**WORKLOADS, **TEST_WORKLOADS}


def unit_id(bench: str, label: str, scale: float) -> str:
    return f"{bench}|{label}|{scale:g}"


# ----------------------------------------------------------------------
# job construction and passes
# ----------------------------------------------------------------------

@dataclass
class Job:
    """A workload made concrete for one seed: the verb's arguments."""

    workload: Workload
    benchmarks: List[str]
    bars: List[str]
    #: the sweep spec dict (sweeps only; ``name`` is set per pass)
    spec: Optional[dict] = None


def build_job(workload: Workload, seed: int,
              profile: Optional[str] = None) -> Job:
    """Shuffle the workload's names by ``seed`` and build the verb's
    arguments (for sweeps, a validated :class:`~repro.campaign.SweepSpec`
    dict).  ``profile`` is only set when regenerating ``expected.json``.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    benches = list(workload.benchmarks)
    bars = list(workload.bars)
    rng.shuffle(benches)
    rng.shuffle(bars)
    job = Job(workload, benches, bars)
    if workload.verb == "lineup":
        from repro.schemes import build_lineup

        build_lineup(bars)  # validates the labels
    else:
        from repro.campaign import SweepSpec

        spec = {
            "benchmarks": benches,
            "schemes": bars,
            "scales": list(workload.scales),
        }
        if profile is not None:
            # A sweep unit's own engine-profile axis decides which
            # engine runs it; the verb's ``profile=`` does not.
            spec["engine_profiles"] = [profile]
        SweepSpec.from_dict(spec)  # validates every axis
        job.spec = spec
    return job


@dataclass
class PassResult:
    """What one call of the verb returned, reduced to checkable facts."""

    wall_s: float
    #: unit id -> {"stats": SimStats, "improvement": float}; each key
    #: present only when the verb's return value carries it
    observed: Dict[str, dict]
    geomean: dict
    executed: int        #: simulations run (0 on a warm pass)
    fallbacks: int       #: batch/pool fallbacks the runtime counted


def run_pass(job: Job, tag: str, runs_root: Path,
             profile: Optional[str] = None,
             recording=contextlib.nullcontext) -> PassResult:
    """Call the workload's verb once; only the call itself is timed.

    ``recording()`` is entered around exactly the timed call (the
    tracer switches itself on there).
    """
    from repro import api
    from repro.runtime import RunnerStats

    w = job.workload
    if w.verb == "lineup":
        (scale,) = w.scales
        stats = RunnerStats()
        with recording():
            t0 = time.perf_counter()
            res = api.lineup(
                scale, job.benchmarks, schemes=job.bars, stats=stats,
                profile=profile,
            )
            wall = time.perf_counter() - t0
        observed: Dict[str, dict] = {}
        for bench, row in res.data["per_benchmark"].items():
            observed[unit_id(bench, BASELINE, scale)] = {}
            for label, value in row.items():
                observed[unit_id(bench, label, scale)] = {
                    "improvement": value
                }
        geomean = {
            label: round(v, 6) for label, v in res.data["geomean"].items()
        }
        return PassResult(wall, observed, geomean, stats.executed,
                          _fallbacks(stats))

    spec = dict(job.spec)
    root = None
    if w.campaign:
        spec["name"] = f"e2e-{tag}"
        root = runs_root
    with recording():
        t0 = time.perf_counter()
        res = api.sweep(spec, root=root, profile=profile)
        wall = time.perf_counter() - t0
    units = {u.unit_id: u for u in res.spec.expand()}
    observed = {
        unit_id(units[uid].bench, units[uid].label, units[uid].scale): {
            "stats": result.stats
        }
        for uid, result in res.results.items()
    }
    geomean = {
        f"{g['scale']:g}": g["geomean"] for g in res.summary["groups"]
    }
    return PassResult(wall, observed, geomean, res.stats.executed,
                      _fallbacks(res.stats))


def fetch_lineup_stats(job: Job, observed: Dict[str, dict],
                       profile: Optional[str] = None) -> int:
    """Attach every lineup unit's ``SimStats`` to ``observed``.

    ``api.lineup`` returns improvements only; the results themselves
    come back through ``api.simulate``, which addresses the same cache
    entries the lineup just wrote.  Returns how many of these calls had
    to simulate (0 when the lineup cached everything).
    """
    from repro import api
    from repro.runtime import RunnerStats

    (scale,) = job.workload.scales
    stats = RunnerStats()
    for bench in job.benchmarks:
        for label in [BASELINE] + job.bars:
            result = api.simulate(
                bench, None if label == BASELINE else label, scale=scale,
                stats=stats, profile=profile,
            )
            observed.setdefault(unit_id(bench, label, scale), {})[
                "stats"
            ] = result.stats
    return stats.executed


def _fallbacks(stats) -> int:
    return stats.worker_failures + stats.timeouts + stats.retries


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _canon(obj):
    """JSON-ready canonical form of a result (dataclasses, enums, maps)."""
    if isinstance(obj, Enum):
        return [type(obj).__name__, obj.value]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, dict):
        return sorted(
            ([_canon(k), _canon(v)] for k, v in obj.items()),
            key=json.dumps,
        )
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def stats_digest(stats) -> str:
    """Short content digest of one result's ``SimStats``."""
    blob = json.dumps(_canon(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def combined_digest(digests: Dict[str, str]) -> str:
    """Order-independent digest over ``unit id -> stats digest``."""
    blob = json.dumps(sorted(digests.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def expected_entry(observed: Dict[str, dict], geomean: dict) -> dict:
    """The ``expected.json`` entry of one fully observed cold pass."""
    units = {}
    for uid in sorted(observed):
        got = observed[uid]
        entry = {"stats": stats_digest(got["stats"])}
        if "improvement" in got:
            entry["improvement"] = got["improvement"]
        units[uid] = entry
    return {"units": units, "geomean": geomean}


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def failed_units(
    expected: dict,
    observed: Dict[str, dict],
    geomean: dict,
    verified: Dict[str, object],
) -> int:
    """How many of the expected units this pass got wrong.

    A unit fails when it is missing or any fact the pass returned for
    it differs from ``expected``.  ``SimStats`` are compared by digest
    the first time a unit is seen; a unit whose digest matched goes
    into ``verified`` and later passes compare against that object,
    which is equivalent and much cheaper.  A geomean mismatch fails the
    whole pass, since it cannot be pinned on one unit.
    """
    units = expected["units"]
    if json.loads(json.dumps(geomean)) != expected["geomean"]:
        return len(units)
    failed = 0
    for uid, want in units.items():
        got = observed.get(uid)
        if got is None:
            failed += 1
            continue
        ok = "improvement" not in got or (
            got["improvement"] == want.get("improvement")
        )
        if ok and "stats" in got:
            if uid in verified:
                ok = got["stats"] == verified[uid]
            elif stats_digest(got["stats"]) == want["stats"]:
                verified[uid] = got["stats"]
            else:
                ok = False
        failed += not ok
    return failed
