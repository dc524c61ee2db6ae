#!/usr/bin/env python
"""Costs of the scheduling paths around the batch kernel, two trees side by side.

Usage::

    python benchmarks/bench_one_loop.py --before PATH [--after PATH]
        [--out results/one_loop.txt]

``PATH`` is the root of a checkout (``--after`` defaults to this one).
For each of the eight ``emts-offline`` cells of the benchmark
(Strassen, FFT-39, FFT-95 and daggen-100 on Chti and Grelon, Amdahl
model) it times, in a fresh interpreter per tree, alternating trees
every round:

* ``build``  — one ``ScheduleKernel`` construction (ms);
* ``final``  — ``map_allocations`` of one random allocation (ms);
* ``single`` — one ``makespan_of`` call (µs);
* ``fallbk`` — one 100-genome ``makespan_batch`` with the native
  library detached, i.e. the no-compiler fallback (ms);
* ``cpr``    — ``CprAllocator().allocate`` (ms).

Each figure is the best of ``ROUNDS`` rounds, each round the best of
a few repeats, so it reads the cost of the path, not the host's noise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CELLS = [
    (graph, platform)
    for graph in ("strassen", "fft39", "fft95", "daggen100")
    for platform in ("chti", "grelon")
]
COLUMNS = (
    ("build", "ms"),
    ("final", "ms"),
    ("single", "us"),
    ("fallbk", "ms"),
    ("cpr", "ms"),
)
ROUNDS = 3


def _best(fn, repeats: int, inner: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def measure_tree() -> dict:
    """Every cell's figures in this interpreter (``repro`` on its path)."""
    import numpy as np

    from repro.allocation import CprAllocator
    from repro.mapping import ScheduleKernel, makespan_of, map_allocations
    from repro.platform import by_name
    from repro.timemodels import AmdahlModel, TimeTable
    from repro.workloads import (
        DaggenParams,
        generate_daggen,
        generate_fft,
        generate_strassen,
    )

    def graph_of(kind):
        if kind == "strassen":
            return generate_strassen(rng=1)
        if kind == "daggen100":
            return generate_daggen(DaggenParams(100), rng=1)
        return generate_fft({"fft39": 8, "fft95": 16}[kind], rng=1)

    out = {}
    for graph, platform in CELLS:
        ptg = graph_of(graph)
        table = TimeTable.build(AmdahlModel(), ptg, by_name(platform))
        P = table.num_processors
        rng = np.random.default_rng(7)
        alloc = rng.integers(1, P + 1, size=ptg.num_tasks, dtype=np.int64)
        block = rng.integers(
            1, P + 1, size=(100, ptg.num_tasks), dtype=np.int64
        )
        makespan_of(ptg, table, alloc)  # build and cache the kernel
        fallback = ScheduleKernel(ptg, table)
        fallback._c = None
        out[f"{graph}/{platform}"] = {
            "build": _best(lambda: ScheduleKernel(ptg, table), 5) * 1e3,
            "final": _best(
                lambda: map_allocations(ptg, table, alloc), 5, 5
            ) * 1e3,
            "single": _best(
                lambda: makespan_of(ptg, table, alloc), 5, 200
            ) * 1e6,
            "fallbk": _best(lambda: fallback.makespan_batch(block), 3) * 1e3,
            "cpr": _best(lambda: CprAllocator().allocate(ptg, table), 3)
            * 1e3,
        }
    return out


def _run_tree(tree: Path, script: str = __file__) -> dict:
    """``script --measure`` in a fresh interpreter on ``tree``'s source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["REPRO_CKERNEL_THREADS"] = "1"
    env.pop("REPRO_NO_CKERNEL", None)
    proc = subprocess.run(
        [sys.executable, script, "--measure"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=1800,
    )
    return json.loads(proc.stdout)


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
            for cell, figures in _run_tree(tree).items():
                row = best[name].setdefault(cell, figures)
                for key, value in figures.items():
                    row[key] = min(row[key], value)
    header = f"{'cell':<18}" + "".join(
        f"{f'{col} ({unit})':>26}" for col, unit in COLUMNS
    )
    lines = [
        "Scheduling paths around the batch kernel, before -> after "
        f"(best of {ROUNDS} alternating rounds)",
        f"host cores: {os.cpu_count()}",
        "",
        header,
    ]
    for cell in best["before"]:
        b, a = best["before"][cell], best["after"][cell]
        lines.append(
            f"{cell:<18}"
            + "".join(
                f"{f'{b[col]:.3g} -> {a[col]:.3g} ({a[col] / b[col]:.2f}x)':>26}"
                for col, _unit in COLUMNS
            )
        )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
