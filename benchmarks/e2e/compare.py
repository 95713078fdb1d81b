"""Compare two sets of end-to-end benchmark runs, metric by metric.

::

    python3 benchmarks/e2e/compare.py A.json [A.json ...] -- B.json [B.json ...]

Side A is the baseline (the parent commit), side B the change.  Each
file holds one record written by ``run.py --out``, or a list of them;
traced records are ignored.  For every (metric, workload) pair the tool
prints each side's median and quartiles and one verdict, with the
bounds and directions of ``BENCHMARK.json``:

``better``
    every B run beats every A run, or B beats A in at least nine tenths
    of the paired runs (ties count for neither side) and the medians
    differ by more than A's own quartile spread;
``worse``
    B's median is worse than A's by more than the metric's bound;
``unresolved``
    otherwise, when either side's quartile spread, as a share of its
    median, is wider than the bound: the runs cannot tell "same" apart;
``same``
    otherwise.

``failed_frac`` (failed over attempted units, summed over a side) is
``worse`` on any increase.  Runs are paired in seed order.

Host metadata must agree: the runs of one side share Python, numpy,
``nproc``, CPU model and git commit, and both sides share everything
but the commit.  Otherwise the tool refuses (exit 2).  Exit 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parents[2]
HOST_KEYS = ("python", "numpy", "nproc", "cpu")


def load_side(paths: Sequence[str]) -> List[dict]:
    records: List[dict] = []
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        records.extend(data if isinstance(data, list) else [data])
    return [r for r in records if not r.get("trace")]


def host_mismatch(a: List[dict], b: List[dict]) -> List[str]:
    """Why the two sides may not be compared (empty when they may)."""
    problems = []
    for side, records in (("A", a), ("B", b)):
        for key in HOST_KEYS + ("commit",):
            seen = {json.dumps(r["host"].get(key)) for r in records}
            if len(seen) > 1:
                problems.append(f"side {side} mixes {key}: "
                                + ", ".join(sorted(seen)))
    if a and b:
        for key in HOST_KEYS:
            va, vb = a[0]["host"].get(key), b[0]["host"].get(key)
            if va != vb:
                problems.append(f"{key} differs: A={va!r} B={vb!r}")
    return problems


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            lower_is_better: bool) -> str:
    """The guide's verdict for one (metric, workload) pair."""
    def better(x, y):  # x reads better than y
        return x < y if lower_is_better else x > y

    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    if all(better(y, x) for x in a for y in b):
        return "better"
    if (pairs and wins >= 0.9 * len(pairs) and better(b_med, a_med)
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "better"
    if better(a_med, b_med) and abs(b_med - a_med) > bound * abs(a_med):
        return "worse"
    spread_a = (a_q3 - a_q1) / abs(a_med) if a_med else float("inf")
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    return "same"


def compare(a: List[dict], b: List[dict], spec: dict) -> List[dict]:
    """One row per (workload, metric) present on both sides."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        ra = sorted((r for r in a if r["workload"] == workload),
                    key=lambda r: r["seed"])
        rb = sorted((r for r in b if r["workload"] == workload),
                    key=lambda r: r["seed"])
        if not ra or not rb:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in ra
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb
                  if name in r["metrics"]]
            if not va or not vb:
                continue
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "bound": metric["bound"],
                "a": quartiles(va), "b": quartiles(vb),
                "n": (len(va), len(vb)),
                "verdict": verdict(va, vb, metric["bound"],
                                   metric["better"] == "lower"),
            })
        fa = _failed_frac(ra)
        fb = _failed_frac(rb)
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "bound": 0.0, "a": (fa, fa, fa), "b": (fb, fb, fb),
            "n": (len(ra), len(rb)),
            "verdict": "worse" if fb > fa else "same",
        })
    return rows


def _failed_frac(records: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / max(1, attempted)


def render(rows: List[dict]) -> str:
    def cell(q):
        q1, med, q3 = q
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    lines = [f"{'workload':<18s} {'metric':<20s} {'unit':<7s} "
             f"{'A median [q1, q3]':<30s} {'B median [q1, q3]':<30s} "
             f"{'n':>6s} {'bound':>6s}  verdict"]
    for r in rows:
        n = f"{r['n'][0]}/{r['n'][1]}"
        lines.append(
            f"{r['workload']:<18s} {r['metric']:<20s} {r['unit']:<7s} "
            f"{cell(r['a']):<30s} {cell(r['b']):<30s} {n:>6s} "
            f"{r['bound']:>6.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    cut = args.index("--")
    a, b = load_side(args[:cut]), load_side(args[cut + 1:])
    if not a or not b:
        print("compare.py: each side needs at least one untraced run",
              file=sys.stderr)
        return 2
    problems = host_mismatch(a, b)
    if problems:
        print("compare.py: refusing to compare:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(a, b, spec)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
