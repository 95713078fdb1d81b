"""One measured workload process of the end-to-end benchmark.

``run.py`` starts this script in a fresh interpreter with ``PYTHONPATH``
pointing at the program's sources and ``REPRO_CACHE_DIR`` at an empty
directory, so the cold pass starts with empty result, trace, route and
profile caches::

    python e2e_child.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR

writes ``DIR/result.json`` (and ``DIR/spans.json`` when tracing).
``--setup`` only imports ``repro.api`` and builds the workload's
arguments, which is what ``setup_s`` times.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import sys
import time
from pathlib import Path

import e2e_workloads as W

#: failure messages kept in the result (the counts keep everything)
MAX_MESSAGES = 20


def measure(workload: W.Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Cold pass, then warm passes; every pass is checked."""
    tracer = None
    if trace:
        from e2e_tracer import Tracer

        tracer = Tracer()
        tracer.install()
    expected = W.load_expected().get(workload.name)
    job = W.build_job(workload, seed)
    runs = workdir / "runs"
    units = workload.units
    out = {
        "workload": workload.name, "seed": seed, "units": units,
        "attempted": 0, "failed": 0, "failures": [], "fallbacks": 0,
        "warm_walls": [], "cold_wall_s": None, "instructions": 0,
        "digest": None,
    }
    verified: dict = {}

    def fail(n: int, message: str) -> None:
        out["failed"] += n
        if len(out["failures"]) < MAX_MESSAGES:
            out["failures"].append(message)

    def one_pass(tag: str):
        out["attempted"] += units
        recording = contextlib.nullcontext
        if tracer is not None:
            recording = functools.partial(tracer.recording, tag)
        try:
            res = W.run_pass(job, tag, runs, recording=recording)
        except Exception as exc:  # the program failed this pass
            fail(units, f"{tag}: {type(exc).__name__}: {exc}")
            return None
        out["fallbacks"] += res.fallbacks
        return res

    def check(tag: str, res) -> None:
        if expected is None:
            fail(units, f"{tag}: no expected outputs for {workload.name}")
            return
        bad = W.failed_units(expected, res.observed, res.geomean, verified)
        if bad:
            fail(bad, f"{tag}: {bad} units differ from expected.json")

    cold = one_pass("cold")
    if cold is None:
        return out
    out["cold_wall_s"] = cold.wall_s
    out["cold_executed"] = cold.executed
    if workload.verb == "lineup":
        W.fetch_lineup_stats(job, cold.observed)
    check("cold", cold)
    digests = {
        uid: W.stats_digest(got["stats"])
        for uid, got in cold.observed.items() if "stats" in got
    }
    out["digest"] = W.combined_digest(digests)
    out["instructions"] = sum(
        got["stats"].instructions
        for got in cold.observed.values() if "stats" in got
    )
    cold_snapshot = tracer.snapshot() if tracer is not None else None

    # Warm passes: fresh runner objects each time (and a new campaign
    # name for campaign workloads), all answered by the cache the cold
    # pass filled.  Traced runs do a fixed number so counts repeat.
    t_start = time.perf_counter()
    n = 0
    while n < W.MIN_WARM_PASSES or (
        tracer is None and time.perf_counter() - t_start < seconds
    ):
        tag = f"warm-{n:03d}"
        n += 1
        res = one_pass(tag)
        if res is None:
            continue
        out["warm_walls"].append(res.wall_s)
        if res.executed:
            fail(units, f"{tag}: simulated {res.executed} units")
            continue
        check(tag, res)

    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        tracer.restore()
        wall = cold.wall_s + sum(out["warm_walls"])
        out["traced_wall_s"] = wall
        out["layers"] = {
            "total": tracer.metrics(wall),
            "cold": tracer.metrics(cold.wall_s, end=cold_snapshot),
            "warm": tracer.metrics(wall - cold.wall_s, start=cold_snapshot),
        }
        out["missing"] = tracer.missing
        with open(workdir / "spans.json", "w") as fh:
            json.dump({
                "workload": workload.name, "seed": seed,
                "spans": tracer.span_records(),
            }, fh)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(W.ALL_WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args(argv)
    workload = W.ALL_WORKLOADS[args.workload]
    if args.setup:
        import repro.api  # noqa: F401

        W.build_job(workload, args.seed)
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     args.workdir)
    with open(args.workdir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
