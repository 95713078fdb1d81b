"""Tests of the end-to-end benchmark harness itself (not the program).

Run from the repository root, outside the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They drive the two small test workloads (two benchmarks at scale 0.1,
one lineup and one campaign sweep) through the same code the real
workloads use.
"""

import copy
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import e2e_child  # noqa: E402
import e2e_tracer  # noqa: E402
import e2e_workloads as W  # noqa: E402

TINY = tuple(W.TEST_WORKLOADS)


def _run(args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=str(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(workload, trace) -> (last stdout line, --out record)``."""
    out = {}
    for trace in (0, 1):
        for name in TINY:
            path = tmp_path_factory.mktemp(f"{name}-{trace}") / "run.json"
            proc = _run(["--workload", name, "--seed", "3",
                         "--seconds", "0.2", "--trace", str(trace),
                         "--out", str(path)])
            assert proc.returncode == 0, proc.stdout + proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            out[name, trace] = (last, json.loads(path.read_text()))
    return out


def test_every_benchmark_metric_is_emitted_with_its_unit(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for (name, trace), (last, _) in runs.items():
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        assert last["attempted"] >= 1
        want = spec["per_layer" if trace else "end_to_end"]
        assert set(last["metrics"]) == {m["name"] for m in want}, name
        for m in want:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(last["metrics"][m["name"]]["value"],
                              (int, float))


def test_traced_outputs_equal_untraced_outputs(runs):
    for name in TINY:
        plain = runs[name, 0][1]["detail"]["digest"]
        traced = runs[name, 1][1]["detail"]
        assert traced["digest"] == traced["untraced_digest"] == plain


def test_self_times_partition_the_traced_wall(runs):
    """Σ self + ``other`` is the traced wall, and no layer's self time
    is double counted (which would drive ``other`` negative)."""
    for name in TINY:
        record = runs[name, 1][1]
        wall = record["detail"]["traced_wall_s"]
        for part in ("total", "cold", "warm"):
            layers = record["layers"][part]
            selfs = {k: v for k, v in layers.items() if k.endswith(".self_s")}
            assert all(v >= -1e-6 for v in selfs.values()), selfs
        total = sum(v for k, v in record["layers"]["total"].items()
                    if k.endswith(".self_s"))
        assert abs(total - wall) <= 0.01 * wall
        assert record["detail"]["missing_entry_points"] == []
        assert Path(record["detail"]["trace_file"]).is_file()


def test_every_wrapped_attribute_exists_and_is_restored():
    from repro.runtime import parallel
    from repro.workloads import tracegen

    tracer = e2e_tracer.Tracer()
    tracer.install()
    try:
        patches = list(tracer.patches)
        assert tracer.missing == []
        for owner, attr, original, own in patches:
            wrapper = inspect.getattr_static(owner, attr)
            assert callable(getattr(wrapper, "__wrapped__", None))
            if own:
                assert wrapper.__wrapped__ is original
        layers = {layer for _, _, layer in e2e_tracer.interior_targets()}
        assert layers == (set(e2e_tracer.INTERIOR.values())
                          | {e2e_tracer.DECIDE})
        # a module binding of a wrapped function is wrapped too
        assert parallel.compiled_trace is tracegen.compiled_trace
        assert hasattr(parallel.compiled_trace, "__wrapped__")
    finally:
        tracer.restore()
    for owner, attr, original, own in patches:
        if own:
            assert vars(owner)[attr] is original, (owner, attr)
        else:
            assert attr not in vars(owner), (owner, attr)
    assert not hasattr(parallel.compiled_trace, "__wrapped__")
    assert tracegen.compiled_trace is parallel.compiled_trace


def test_corrupted_expected_digest_fails_every_unit(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    name = "tiny-sweep"
    bad = copy.deepcopy(W.load_expected())
    for unit in bad[name]["units"].values():
        unit["stats"] = "0" * 16
    monkeypatch.setattr(W, "load_expected", lambda: bad)
    out = e2e_child.measure(W.ALL_WORKLOADS[name], 0, 0.0, False, tmp_path)
    assert out["attempted"] > 0
    assert out["failed"] / out["attempted"] == 1


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    proc = _run(["--workload", "fig4-affine", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _record(workload, seed, values, commit="c1"):
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "attempted": 10, "failed": 0,
        "host": {"python": "3", "numpy": "1", "nproc": 2, "cpu": "x",
                 "commit": commit},
        "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
    }


def test_compare_verdicts_and_host_refusal():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    base = [_record("w", s, {"t": 10 + 0.01 * s}) for s in range(10)]

    def verdict(b):
        rows = compare.compare(base, b, spec)
        return {r["metric"]: r["verdict"] for r in rows}

    same = [_record("w", s, {"t": 10.02 - 0.01 * s}, "c2")
            for s in range(10)]
    assert verdict(same) == {"t": "same", "failed_frac": "same"}
    slower = [_record("w", s, {"t": 12 + 0.01 * s}, "c2") for s in range(10)]
    assert verdict(slower)["t"] == "worse"
    faster = [_record("w", s, {"t": 8 + 0.01 * s}, "c2") for s in range(10)]
    assert verdict(faster)["t"] == "better"
    noisy = [_record("w", s, {"t": 10.5 if s % 2 else 9}, "c2")
             for s in range(10)]
    assert verdict(noisy)["t"] == "unresolved"
    assert compare.host_mismatch(base, same) == []
    other = copy.deepcopy(same)
    other[0]["host"]["cpu"] = "y"
    assert compare.host_mismatch(base, other)
