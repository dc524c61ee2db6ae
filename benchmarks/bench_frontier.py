#!/usr/bin/env python
"""Per-call costs of the Python paths around the online frontier mapper,
two trees side by side.

Usage::

    python benchmarks/bench_frontier.py --before PATH [--after PATH]
        [--out results/frontier_mapper.txt]

``PATH`` is the root of a checkout (``--after`` defaults to this one).
Each tree is measured in a fresh interpreter, alternating trees every
round, with the native library bound and ``REPRO_CKERNEL_THREADS=1``:

* ``run_abort`` / ``run_full`` — one reference-mapper call
  (``list_scheduler._run``) on an FFT-15 frontier on Grelon under
  random release times and per-processor availability, rejected at its
  first task / mapped to the end (µs);
* ``greedy10`` / ``greedy26`` — ``Rescheduler.reschedule`` on the
  greedy rung (``remaining_budget=0``) for the last 10 / 26 tasks of
  FFT-39 on Grelon with 117 alive processors, median of 300 calls (ms);
* ``check_alloc`` — ``check_allocation`` of a 15-task vector (µs);
* ``gen_stats`` — ``GenerationStats.from_population`` over four
  individuals, the online EMTS rung's μ (µs);
* ``final`` — ``ScheduleKernel.build_schedule`` on FFT-95 / Grelon (µs);
* ``bl_d100`` / ``bl_d1000`` — ``bottom_levels`` on daggen graphs of
  100 and 1,000 tasks (µs).

Each figure is the best of ``ROUNDS`` rounds, each round the best of
a few repeats (the greedy rung: the median of its calls).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from bench_one_loop import _best, _run_tree

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = (
    ("run_abort", "us"),
    ("run_full", "us"),
    ("greedy10", "ms"),
    ("greedy26", "ms"),
    ("check_alloc", "us"),
    ("gen_stats", "us"),
    ("final", "us"),
    ("bl_d100", "us"),
    ("bl_d1000", "us"),
)
ROUNDS = 3


def _median(fn, calls: int) -> float:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_tree() -> dict:
    """Every figure in this interpreter (``repro`` on its path)."""
    import numpy as np

    from repro.ea import GenerationStats, Individual
    from repro.graph import bottom_levels
    from repro.mapping import check_allocation, kernel_for
    from repro.mapping.list_scheduler import _run
    from repro.online.rescheduler import Rescheduler
    from repro.platform import grelon
    from repro.timemodels import SyntheticModel, TimeTable
    from repro.workloads import DaggenParams, generate_daggen, generate_fft

    rng = np.random.default_rng(7)
    out = {}

    fft15 = generate_fft(4, rng=1)
    table = TimeTable.build(SyntheticModel(), fft15, grelon())
    P, V = table.num_processors, fft15.num_tasks
    release = rng.random(V) * 2.0
    avail = rng.random(P) * 5.0
    alloc = rng.integers(1, P + 1, size=V, dtype=np.int64)
    out["run_abort"] = _best(
        lambda: _run(fft15, table, alloc, False, 1e-9, release=release,
                     avail=avail), 5, 2000
    ) * 1e6
    out["run_full"] = _best(
        lambda: _run(fft15, table, alloc, False, None, release=release,
                     avail=avail), 5, 500
    ) * 1e6
    out["check_alloc"] = _best(
        lambda: check_allocation(alloc, fft15, P), 5, 20000
    ) * 1e6

    fft39 = generate_fft(8, rng=1)
    table39 = TimeTable.build(SyntheticModel(), fft39, grelon())
    rescheduler = Rescheduler(fft39, table39, rng=3)
    alive = np.arange(117, dtype=np.int64)
    for k in (10, 26):
        frontier = np.sort(fft39.topological_order[-k:])
        state = dict(
            now=1.0,
            frontier=frontier,
            release=1.0 + rng.random(k),
            allocation=rng.integers(1, 9, size=k, dtype=np.int64),
            alive=alive,
            avail=1.0 + rng.random(alive.size) * 3.0,
            remaining_budget=0,
        )
        out[f"greedy{k}"] = _median(
            lambda: rescheduler.reschedule(**state), 300
        ) * 1e3

    population = [
        Individual(genome=np.ones(1, dtype=np.int64), fitness=f)
        for f in (rng.random(4) * 100.0).tolist()
    ]
    out["gen_stats"] = _best(
        lambda: GenerationStats.from_population(1, population, 12, 0.0),
        5,
        20000,
    ) * 1e6

    fft95 = generate_fft(16, rng=1)
    kernel = kernel_for(TimeTable.build(SyntheticModel(), fft95, grelon()))
    alloc95 = rng.integers(1, 9, size=fft95.num_tasks, dtype=np.int64)
    out["final"] = _best(lambda: kernel.build_schedule(alloc95), 5, 200) * 1e6

    for key, n in (("bl_d100", 100), ("bl_d1000", 1000)):
        ptg = generate_daggen(
            DaggenParams(n, width=0.5, regularity=0.2, density=0.5, jump=2),
            rng=1,
        )
        times = rng.random(n) + 0.5
        bottom_levels(ptg, times)  # fill any per-graph cache first
        out[key] = _best(lambda: bottom_levels(ptg, times), 5, 50) * 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure_tree(), sys.stdout)
        return 0
    if args.before is None:
        parser.error("--before is required")
    trees = {"before": args.before, "after": args.after}
    best: dict = {name: {} for name in trees}
    for _ in range(ROUNDS):
        for name, tree in trees.items():
            for key, value in _run_tree(tree, __file__).items():
                best[name][key] = min(best[name].get(key, value), value)
    lines = [
        "Python paths around the online frontier mapper, before -> after "
        f"(best of {ROUNDS} alternating rounds)",
        f"host cores: {os.cpu_count()}",
        "",
    ]
    for key, unit in COLUMNS:
        b, a = best["before"][key], best["after"][key]
        lines.append(
            f"{f'{key} ({unit})':<18}{b:>10.3g} -> {a:<10.3g}({a / b:.2f}x)"
        )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
