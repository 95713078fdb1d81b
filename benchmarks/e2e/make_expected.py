"""Regenerate ``expected.json``, the outputs every benchmark pass is
checked against.

Each workload's cold pass runs under the frozen ``reference`` engine
profile (the authority), then again under the default profile, each
into an empty cache; nothing is written unless the two agree::

    PYTHONPATH=src python benchmarks/e2e/make_expected.py [WORKLOAD ...]

With no names, every workload (the test workloads included) is
regenerated.  The file holds, per workload, every unit's ``SimStats``
digest (and lineup improvement) plus the geomeans.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import e2e_workloads as W


def observe(workload: W.Workload, profile, workdir) -> dict:
    """One cold pass of ``workload`` into an empty cache under
    ``workdir``, reduced to its ``expected.json`` entry."""
    from repro.runtime.batch import clear_trace_cache
    from repro.schemes import clear_profile_cache
    from repro.workloads.tracegen import clear_cache

    clear_cache()
    clear_trace_cache()
    clear_profile_cache()
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    job = W.build_job(workload, 0, profile=profile)
    res = W.run_pass(job, "expected", workdir / "runs", profile=profile)
    if workload.verb == "lineup":
        W.fetch_lineup_stats(job, res.observed, profile=profile)
    return W.expected_entry(res.observed, res.geomean)


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:])
    names = names or list(W.ALL_WORKLOADS)
    unknown = [n for n in names if n not in W.ALL_WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    expected = (
        W.load_expected() if W.EXPECTED_PATH.exists() else {}
    )
    work = W.HERE / ".work" / f"expected-{os.getpid()}"
    try:
        for name in names:
            workload = W.ALL_WORKLOADS[name]
            ref = observe(workload, "reference", work / "reference")
            default = observe(workload, None, work / "default")
            if ref != default:
                print(f"{name}: the default profile disagrees with the "
                      "reference profile; expected.json not written",
                      file=sys.stderr)
                return 1
            expected[name] = ref
            print(f"{name}: {len(ref['units'])} units agree", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(W.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
