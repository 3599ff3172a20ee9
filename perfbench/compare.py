"""Record the benchmark's baseline, or compare a parent checkout with a change.

    python3 perfbench/compare.py record
    python3 perfbench/compare.py compare --parent ../parent --change . \
        --claim request_s_p50@unit-wide [--out report.json]

Both modes run this directory's `run.py`, with the settings of
BENCHMARK.json, from the root of each checkout, so the two sides are
measured by identical benchmark code.

`record` runs every workload once on each of seeds 1-10 and reports each
end-to-end metric's median, quartiles and spread (quartile distance over
median) against a third of its bound.  It then makes traced runs on seeds
1 and 11, which must give the same work counts, and writes those counts
to `perfbench/baseline.json`; `run.py --trace 1` checks every later run
against them.  The record also notes nproc and the Python version.

`compare` runs ten parent/change pairs on every workload, on seeds
1001-1010, alternating which side runs first.  The named claim holds when
the change wins at least nine of the ten pairs (ties, and pairs where a
side produced no result, count as not won), the medians differ by more
than the parent's quartile distance, the change has no more failed
requests than the parent and the two sides' work counts are identical.
Every other (metric, workload) pair reads "no worse", "worse" or
"unresolved" against the benchmark's bounds; unresolved means the
parent's own spread is wider than the bound and not every change run
beats every parent run.  The exit code is 1 when any run failed or any
workload's work counts differ between the sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RECORD_SEEDS = range(1, 11)
RECORD_TRACE_SEEDS = (1, 11)
PAIRS = 10
COMPARE_SEEDS = range(1001, 1001 + PAIRS)
COMPARE_TRACE_SEED = 1001


def run_bench(checkout, workload, seed, trace):
    """The result object of one run; a run that gives none counts as one failure."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "error": proc.stderr.strip()[-500:]}
    print(f"  {Path(checkout).resolve().name} {workload} seed {seed} trace {trace}: "
          f"correct {result['correct']}, {result['attempted']} attempted, "
          f"{result['failed']} failed", flush=True)
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def counts_of(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def summary(values):
    if not values:
        return {"values": [], "median": float("nan"), "q1": float("nan"),
                "q3": float("nan"), "spread": float("inf")}
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "run_seconds": SPEC["run_seconds"]}


def cmd_record(args):
    BASELINE.unlink(missing_ok=True)  # the traced runs must not check against it
    out = {"machine": machine(), "workloads": {}}
    ok = True
    for w in WORKLOADS:
        runs = [run_bench(".", w, s, 0) for s in RECORD_SEEDS]
        ok &= all(r["correct"] for r in runs)
        e2e = {}
        for name, spec in METRICS.items():
            s = summary([value(r, name) for r in runs if r["metrics"]])
            e2e[name] = s
            flag = "ok" if s["spread"] < spec["bound"] / 3 else "WIDE"
            print(f"{w:10s} {name:16s} median {s['median']:.5g} {spec['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound/3 {spec['bound'] / 3:.4f}) {flag}")
        traced = [run_bench(".", w, s, 1) for s in RECORD_TRACE_SEEDS]
        counts = [counts_of(r) for r in traced]
        ok &= all(r["correct"] for r in traced) and all(c == counts[0] for c in counts)
        print(f"{w:10s} work counts identical on seeds {RECORD_TRACE_SEEDS}: "
              f"{all(c == counts[0] for c in counts)}")
        out["workloads"][w] = {"seeds": list(RECORD_SEEDS), "end_to_end": e2e,
                               "counts": counts[0]}
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


def better(name, a, b):
    """+1 if a is better than b for this metric, -1 if worse, 0 on a tie."""
    if a == b:
        return 0
    lower = METRICS[name]["better"] == "lower"
    return 1 if (a < b) == lower else -1


def verdict(name, parent, change):
    """Judge change against parent for one (metric, workload) pair."""
    if len(change) < len(parent):
        return "worse"  # some change runs gave no result
    bound = METRICS[name]["bound"]
    p, c = summary(parent), summary(change)
    if all(better(name, x, y) > 0 for x in change for y in parent):
        return "no worse"
    if p["spread"] > bound:
        return "unresolved"
    worse_by = (c["median"] - p["median"]) / p["median"]
    if METRICS[name]["better"] == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "no worse"


def cmd_compare(args):
    claim_metric, claim_workload = args.claim.split("@")
    if claim_metric not in METRICS or claim_workload not in WORKLOADS:
        raise SystemExit(f"unknown claim {args.claim!r}")
    report = {"machine": machine(), "claim": args.claim, "pairs": PAIRS, "rows": [],
              "workloads": {}}
    sides = {"parent": args.parent, "change": args.change}
    ok = True
    for w in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(COMPARE_SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(sides[side], w, seed, 0))
        traced = {side: run_bench(sides[side], w, COMPARE_TRACE_SEED, 1) for side in sides}
        failed = {side: sum(r["failed"] for r in runs[side] + [traced[side]]) for side in sides}
        same_counts = counts_of(traced["parent"]) == counts_of(traced["change"])
        ok &= same_counts and all(r["correct"] for side in runs.values() for r in side)
        ok &= all(r["correct"] for r in traced.values())
        report["workloads"][w] = {"failed": failed, "counts_identical": same_counts,
                                  **{side: counts_of(traced[side]) for side in sides}}
        for name in METRICS:
            pv = [value(r, name) for r in runs["parent"] if r["metrics"]]
            cv = [value(r, name) for r in runs["change"] if r["metrics"]]
            row = {"workload": w, "metric": name, "parent": summary(pv), "change": summary(cv)}
            if name == claim_metric and w == claim_workload:
                wins = sum(bool(p["metrics"] and c["metrics"])
                           and better(name, value(c, name), value(p, name)) > 0
                           for p, c in zip(runs["parent"], runs["change"]))
                gap = abs(row["change"]["median"] - row["parent"]["median"])
                iqr = row["parent"]["q3"] - row["parent"]["q1"]
                improved = better(name, row["change"]["median"], row["parent"]["median"]) > 0
                met = (wins >= 0.9 * PAIRS and gap > iqr and improved
                       and failed["change"] <= failed["parent"] and same_counts)
                row.update(wins=wins, verdict="claim met" if met else "claim not met")
            else:
                row["verdict"] = verdict(name, pv, cv)
            report["rows"].append(row)
            print(f"{w:10s} {name:16s} parent {row['parent']['median']:.5g} "
                  f"[{row['parent']['q1']:.5g}, {row['parent']['q3']:.5g}]  change "
                  f"{row['change']['median']:.5g} [{row['change']['q1']:.5g}, "
                  f"{row['change']['q3']:.5g}]  {row['verdict']}")
        print(f"{w:10s} failed requests: parent {failed['parent']}, change {failed['change']}; "
              f"work counts identical: {same_counts}")
    report["ok"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("record", help="spread of every metric over seeds, and work counts")
    cmp_ = sub.add_parser("compare", help="parent versus change on every workload")
    cmp_.add_argument("--parent", required=True)
    cmp_.add_argument("--change", required=True)
    cmp_.add_argument("--claim", required=True, help="METRIC@WORKLOAD")
    cmp_.add_argument("--out")
    args = parser.parse_args(argv)
    return cmd_record(args) if args.mode == "record" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
