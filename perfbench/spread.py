#!/usr/bin/env python3
"""Run the benchmark once per seed and report how much each metric spreads.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--seconds N] [--out SET.json]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

The first form runs ``run.py --trace 0`` on seeds ``--seed-base``,
``--seed-base + 1``, ... and prints, per workload and end-to-end
metric, the median and the spread: the distance between the first and
the third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to a third of the metric's bound and the bound
from ``BENCHMARK.json``.  ``--out`` saves the set.  The second form
compares the medians of two saved sets and flags every metric whose
second median is worse than the first by more than its bound; it
refuses sets measured on different kernel engines or core counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    WORK.mkdir(exist_ok=True)
    out = WORK / f"spread-{workload}-{seed}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    doc = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return doc


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def measure(args) -> int:
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or spec["run_seconds"]
    runs: dict[str, list[dict]] = {}
    provenance = None
    worst = 0.0
    for workload in workloads:
        docs = []
        for k in range(args.runs):
            doc = run_once(workload, args.seed_base + k, seconds)
            provenance = provenance or doc["provenance"]
            docs.append(doc)
            print(f"  {workload} seed {args.seed_base + k}: "
                  + ", ".join(f"{n}={m['value']:.4g}" for n, m in doc["metrics"].items()),
                  flush=True)
        runs[workload] = [doc["metrics"] for doc in docs]
        print(f"{workload}: {args.runs} runs")
        for metric in spec["end_to_end"]:
            values = [m[metric["name"]]["value"] for m in runs[workload]]
            median, share = spread(values)
            bound = metric["bound"]
            flag = "ok" if share < bound / 3 else ("WIDE" if share < bound else "TOO WIDE")
            if metric["name"] != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {metric['name']:18s} median {median:10.4f} {metric['unit']:5s}"
                  f" spread {share:6.1%}  (bound/3 {bound / 3:5.1%}, bound {bound:4.0%}) {flag}")
    if args.out:
        keep = {k: provenance[k] for k in ("engine", "nproc", "python", "ckernel_threads")}
        args.out.write_text(
            json.dumps({"provenance": keep, "seconds": seconds, "runs": runs}, indent=1),
            encoding="utf-8",
        )
    return 0 if worst < 1.0 else 1


def compare(first_path: Path, second_path: Path) -> int:
    first = json.loads(first_path.read_text(encoding="utf-8"))
    second = json.loads(second_path.read_text(encoding="utf-8"))
    for key in ("engine", "nproc"):
        if first["provenance"][key] != second["provenance"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({first['provenance'][key]} vs {second['provenance'][key]})")
            return 2
    spec = contract()
    worse = 0
    for workload in sorted(set(first["runs"]) & set(second["runs"])):
        print(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(m[name]["value"] for m in first["runs"][workload])
            b = statistics.median(m[name]["value"] for m in second["runs"][workload])
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "WORSE" if change > metric["bound"] else "ok"
            worse += flag == "WORSE"
            print(f"  {name:18s} {a:10.4f} -> {b:10.4f} {metric['unit']:5s}"
                  f" worse by {change:+6.1%} (bound {metric['bound']:4.0%}) {flag}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default=None, help="comma-separated")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
