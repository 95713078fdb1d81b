"""End-to-end benchmark of the simulator: host time of the real jobs.

Runs each workload (see ``e2e_workloads.py``) in its own fresh
interpreter: a cold pass into empty caches, then warm passes answered
from the cache the cold pass filled.  Every pass's outputs are checked
against ``expected.json``.  Prints every metric by name with its unit;
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

Without ``--workload`` every workload runs in turn.  ``--trace`` swaps
the end-to-end metrics for the per-layer table of a traced run (see
``e2e_tracer.py``) and writes its spans to ``trace-<workload>.json``
beside the ``--out`` file (default ``benchmarks/e2e/out/``).

Exit status: 0 when every output was correct, 1 when any was not, 2
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import e2e_workloads as W  # noqa: E402

#: fresh-interpreter launches ``setup_s`` takes the median of
SETUP_LAUNCHES = 5
#: backstop for a stuck workload process (a caller's own limit on the
#: whole run normally comes first)
CHILD_TIMEOUT_S = 900

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "cold_wall_s": "s",
    "cold_sim_kops_per_s": "kops/s",
    "warm_wall_s": "s",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics reported by ``--trace``: name -> unit.  Every layer
#: reports its call count; self times are reported for the layers every
#: workload runs (the full table, zeros included, is printed and kept in
#: the ``--out`` record).
_ALWAYS_RUN = (
    "workloads.build", "core.algorithm2", "core.lowering",
    "workloads.tracegen", "arch.simulator", "runtime.keys",
    "runtime.cache", "runtime.parallel",
)


def _per_layer_units() -> dict:
    from e2e_tracer import INTERIOR, LAYERS, DECIDE

    units = {f"{layer}.calls": "count" for layer in LAYERS}
    for layer in _ALWAYS_RUN + (DECIDE,) + tuple(INTERIOR.values()):
        units[f"{layer}.self_s"] = "s"
    units.update({
        "arch.simulator.incl_s": "s",
        "arch.ops": "count",
        "schemes.warmup.sims": "count",
        "runtime.cache.hits": "count",
        "runtime.cache.misses": "count",
        "runtime.cache.bytes_read": "B",
        "runtime.cache.bytes_written": "B",
        "runtime.parallel.fallbacks": "count",
        "workloads.tracegen.hit_ratio": "ratio",
        "other.self_s": "s",
        "trace_overhead": "ratio",
    })
    return units


def child_env(workdir: Path) -> dict:
    """Environment of a workload process: the program from ``src/``,
    every cache and scratch file inside ``workdir``."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["REPRO_RUNS_DIR"] = str(workdir / "runs")
    env["XDG_CACHE_HOME"] = str(workdir / "xdg")
    env["TMPDIR"] = str(workdir / "tmp")
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def launch(args, workdir: Path) -> float:
    """Run ``e2e_child.py`` with ``args``; returns its wall seconds."""
    cmd = [sys.executable, str(HERE / "e2e_child.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=child_env(workdir), cwd=str(workdir),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload process failed ({proc.returncode}):\n"
            + proc.stderr[-4000:]
        )
    return wall


def measure_child(workload: str, seed: int, seconds: float, trace: int,
                  workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    launch(["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)], workdir)
    with open(workdir / "result.json") as fh:
        return json.load(fh)


def host_info() -> dict:
    """What must match before two sets of runs may be compared."""
    from importlib import metadata

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 trace_dir: Path = OUT) -> dict:
    """One benchmark run of one workload; returns its record.  A traced
    run writes its spans to ``trace_dir/trace-<workload>.json``."""
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if trace:
            _traced(record, workdir, trace_dir)
        else:
            _untraced(record, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["failed_frac"] = record["failed"] / max(1, record["attempted"])
    record["correct"] = record["failed"] == 0 and record["attempted"] > 0
    return record


def _untraced(record: dict, workdir: Path) -> None:
    name, seed = record["workload"], record["seed"]
    workdir.mkdir(parents=True)
    setup = [
        launch(["--setup", "--workload", name, "--seed", str(seed)],
               workdir)
        for _ in range(SETUP_LAUNCHES)
    ]
    child = measure_child(name, seed, record["seconds"], 0,
                          workdir / "run")
    _take_counts(record, child)
    record["detail"] = {"failures": child["failures"]}
    cold = child["cold_wall_s"]
    if cold is None:
        return
    record["metrics"] = _with_units({
        "setup_s": statistics.median(setup),
        "cold_wall_s": cold,
        "cold_sim_kops_per_s": child["instructions"] / cold / 1e3,
        "warm_wall_s": statistics.median(child["warm_walls"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }, END_TO_END)
    record["detail"].update({
        "setup_walls": setup,
        "warm_walls": child["warm_walls"],
        "cold_executed": child["cold_executed"],
        "instructions": child["instructions"],
        "digest": child["digest"],
    })


def _traced(record: dict, workdir: Path, trace_dir: Path) -> None:
    name, seed = record["workload"], record["seed"]
    # The untraced twin only supplies the overhead's denominator and a
    # digest to compare: its warm phase is kept to the minimum.
    plain = measure_child(name, seed, 0, 0, workdir / "plain")
    traced = measure_child(name, seed, 0, 1, workdir / "traced")
    _take_counts(record, plain)
    _take_counts(record, traced)
    failures = plain["failures"] + traced["failures"]
    if plain["digest"] != traced["digest"]:
        record["failed"] += traced["units"]
        failures.append("traced outputs differ from untraced outputs")
    record["detail"] = {"failures": failures}
    if traced["cold_wall_s"] is None or plain["cold_wall_s"] is None:
        return
    layers = traced["layers"]
    total = layers["total"]
    total["runtime.parallel.fallbacks"] = traced["fallbacks"]
    total["trace_overhead"] = traced["cold_wall_s"] / plain["cold_wall_s"]
    record["metrics"] = _with_units(total, _per_layer_units())
    record["layers"] = layers
    trace_file = trace_dir / f"trace-{name}.json"
    record["detail"].update({
        "traced_wall_s": traced["traced_wall_s"],
        "traced_cold_wall_s": traced["cold_wall_s"],
        "untraced_cold_wall_s": plain["cold_wall_s"],
        "digest": traced["digest"],
        "untraced_digest": plain["digest"],
        "missing_entry_points": traced["missing"],
        "trace_file": str(trace_file),
    })
    trace_dir.mkdir(parents=True, exist_ok=True)
    os.replace(workdir / "traced" / "spans.json", trace_file)


def _take_counts(record: dict, child: dict) -> None:
    record["attempted"] += child["attempted"]
    record["failed"] += child["failed"]


def _with_units(values: dict, units: dict) -> dict:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def render(record: dict) -> str:
    lines = [f"== {record['workload']} (seed {record['seed']}"
             + (", traced" if record["trace"] else "") + ") =="]
    if record["trace"] and "layers" in record:
        lines.append(render_layers(record))
    else:
        for name, m in record["metrics"].items():
            lines.append(f"  {name:<22s} {m['value']:12.4f} {m['unit']}")
    lines.append(
        f"  {'failed_frac':<22s} {record['failed_frac']:12.4f} ratio "
        f"({record['failed']}/{record['attempted']} units)"
    )
    for msg in record.get("detail", {}).get("failures", []):
        lines.append(f"  ! {msg}")
    return "\n".join(lines)


def render_layers(record: dict) -> str:
    from e2e_tracer import LAYERS

    layers = record["layers"]
    cold, warm, total = layers["cold"], layers["warm"], layers["total"]
    wall = record["detail"]["traced_wall_s"]
    rows = [f"  {'layer':<24s}{'calls':>10s}{'self cold s':>13s}"
            f"{'self warm s':>13s}{'self total s':>14s}{'share':>8s}"]
    for layer in LAYERS + ("other",):
        key = f"{layer}.self_s"
        calls = total.get(f"{layer}.calls", "")
        rows.append(
            f"  {layer:<24s}{calls!s:>10s}{cold[key]:13.4f}"
            f"{warm[key]:13.4f}{total[key]:14.4f}"
            f"{100 * total[key] / wall:7.1f}%"
        )
    extras = [
        "arch.simulator.incl_s", "schemes.warmup.incl_s", "arch.ops",
        "schemes.warmup.sims", "runtime.cache.hits", "runtime.cache.misses",
        "runtime.cache.bytes_read", "runtime.cache.bytes_written",
        "runtime.parallel.fallbacks", "workloads.tracegen.hit_ratio",
        "trace_overhead",
    ]
    for key in extras:
        if key in total:
            rows.append(f"  {key:<36s} {total[key]:g}")
    rows.append(f"  traced wall {wall:.4f} s over the cold pass and "
                f"{W.MIN_WARM_PASSES} warm passes")
    missing = record["detail"]["missing_entry_points"]
    if missing:
        rows.append("  entry points not found: " + ", ".join(missing))
    return "\n".join(rows)


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end simulator benchmark (host time)."
    )
    ap.add_argument("--workload", choices=sorted(W.ALL_WORKLOADS),
                    help="one workload (default: every benchmark workload)")
    ap.add_argument("--seed", type=int, default=0,
                    help="shuffles the order names reach the program")
    ap.add_argument("--seconds", type=float, default=8.0,
                    help="least length of the warm phase (default 8)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer traced run")
    ap.add_argument("--out", type=Path,
                    help="also write the full record(s) as JSON here "
                    "(traced spans go beside it)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "api.py").is_file():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    # The caller stops a run with SIGTERM: unwind, so every workload
    # process is killed and waited for and the scratch dirs go away.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = [args.workload] if args.workload else list(W.WORKLOADS)
    trace_dir = args.out.parent if args.out is not None else OUT
    host = host_info()
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace,
                                  trace_dir)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        record["host"] = host
        records.append(record)
        print(render(record))
        print(result_line(record), flush=True)
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(records[0] if args.workload else records, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
