#!/usr/bin/env python
"""Measure the population-at-once batch evaluation speedup.

Writes ``benchmarks/BENCH_batch.json`` (the machine-readable baseline
the CI perf-smoke job regenerates and gates) with:

``single_us_per_genome``
    Mean microseconds per genome when each genome crosses the full
    evaluator stack in its own call — one FFI round-trip (or one
    reference-mapper run on the fallback) per genome, the
    per-genome-overhead-dominated path the batch entry point
    eliminates.
``batch_us_per_genome``
    Mean microseconds per genome when one generation-sized block goes
    through :meth:`SerialEvaluator.evaluate_batch` in a single call.
``batch_speedup_x``
    ``single / batch`` measured in the *same run* on the same host, so
    the ratio is robust to hardware differences.  Gated at >= 5x on
    the compiled engine (the fallback runs the reference mapper row
    by row, saves only the per-call dispatch, and is gated at >= 1x).
``engine``
    ``"c"`` when the compiled cffi kernel scored the block, else
    ``"numpy"``.
``island_makespans`` / ``island_identical``
    Same-seed EMTS5 island-mode makespans at ``REPRO_CKERNEL_THREADS``
    1 and 2 — the kernel thread count is a pure execution knob, so the
    gate requires them bit-identical.
``pinned``
    Frozen pre-optimization means that never track a fresh run (same
    idiom as ``perf_baseline.json``): ``pre_batch_us_per_genome`` is
    the *whole-generation* batch path as committed before the
    slot-based native batch scheduler landed, same benchmark, same
    machine.  ``check_perf.py --batch`` asserts the committed
    ``batch_us_per_genome`` keeps a >= 3x speedup against it.

The benchmark problem is the paper's flagship Strassen task graph
(V=23) on the Grelon cluster — the regime the EMTS campaigns spend
their time in, where per-genome call overhead dominates single-call
evaluation.

``python benchmarks/check_perf.py --batch benchmarks/BENCH_batch.json``
enforces the gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

import numpy as np  # noqa: E402

from repro._rng import spawn  # noqa: E402
from repro.core import emts5  # noqa: E402
from repro.core.evaluator import create_evaluator  # noqa: E402
from repro.mapping.kernel import kernel_for  # noqa: E402
from repro.platform import grelon  # noqa: E402
from repro.timemodels import SyntheticModel, TimeTable  # noqa: E402
from repro.workloads import generate_strassen  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_batch.json"
BENCH_SEED = 20110926
#: genomes per block — one EMTS10 generation of offspring
BLOCK = 100
#: kernel thread counts the island-mode identity check runs at
ISLAND_THREADS = (1, 2)
#: pre-optimization batch path (whole generation through the evaluator
#: stack, heap-based C scheduler, one FFI call) on the machine that
#: produced the committed baseline — never refreshed from a run
PINNED_DEFAULTS: dict[str, float] = {
    "pre_batch_us_per_genome": 10.06,
}


def _problem():
    ptg = generate_strassen(rng=11)
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    kernel_for(table)  # exclude one-off kernel construction
    return ptg, cluster, table


def measure_paths(ptg, table, reps: int = 9) -> tuple[float, float]:
    """(single-call, batch-call) microseconds per genome, best-of-reps.

    Both paths run on the *same* evaluator over the same genome
    blocks, interleaved, so cache state and CPU frequency drift
    cancel.  The single path calls ``evaluate`` once per genome — one
    FFI round-trip each, the per-call overhead the batch entry point
    amortizes across the population.
    """
    evaluator = create_evaluator(ptg, table)
    rng = spawn(BENCH_SEED, "batch-bench")
    blocks = [
        rng.integers(
            1, table.num_processors + 1, size=(BLOCK, ptg.num_tasks),
            dtype=np.int64,
        )
        for _ in range(reps + 1)
    ]
    # warm-up + bit-identity sanity: both paths must agree exactly
    warm = blocks[-1]
    batch_values = evaluator.evaluate_batch(warm)
    single_values = [evaluator.evaluate([g])[0] for g in warm]
    if batch_values != single_values:
        raise SystemExit(
            "batch and single-call evaluation disagree — refusing to "
            "benchmark a broken kernel"
        )

    t_single = t_batch = float("inf")
    for r in range(reps):
        genomes = list(blocks[r])
        t0 = time.perf_counter()
        for g in genomes:
            evaluator.evaluate([g])
        t_single = min(t_single, time.perf_counter() - t0)
        t0 = time.perf_counter()
        evaluator.evaluate_batch(blocks[r])
        t_batch = min(t_batch, time.perf_counter() - t0)
    evaluator.close()
    scale = 1e6 / BLOCK
    return t_single * scale, t_batch * scale


def measure_island_identity(ptg, cluster, table) -> dict:
    """Same-seed EMTS5 island-mode makespans across kernel thread counts."""
    makespans = {}
    saved = os.environ.get("REPRO_CKERNEL_THREADS")
    try:
        for threads in ISLAND_THREADS:
            os.environ["REPRO_CKERNEL_THREADS"] = str(threads)
            result = emts5(islands=True).schedule(
                ptg, cluster, table, rng=BENCH_SEED
            )
            makespans[str(threads)] = result.makespan
    finally:
        if saved is None:
            os.environ.pop("REPRO_CKERNEL_THREADS", None)
        else:
            os.environ["REPRO_CKERNEL_THREADS"] = saved
    values = set(makespans.values())
    return {
        "island_makespans": makespans,
        "island_identical": len(values) == 1,
    }


def run(out_path: Path) -> dict:
    ptg, cluster, table = _problem()
    engine = kernel_for(table).engine
    print(f"engine: {engine}")
    print("measuring single-call vs batch evaluation ...")
    single_us, batch_us = measure_paths(ptg, table)
    speedup = single_us / batch_us
    print(
        f"  single {single_us:.2f} us/genome, batch "
        f"{batch_us:.2f} us/genome -> {speedup:.2f}x"
    )
    print("checking island-mode bit-identity across kernel threads ...")
    islands = measure_island_identity(ptg, cluster, table)
    verdict = "identical" if islands["island_identical"] else "DIVERGED"
    print(f"  kernel threads {ISLAND_THREADS}: {verdict}")
    # pinned values survive refreshes (see perf_baseline.json idiom)
    pinned = dict(PINNED_DEFAULTS)
    if out_path.exists():
        previous = json.loads(out_path.read_text(encoding="utf-8"))
        pinned.update(previous.get("pinned", {}))
    result = {
        "comment": (
            "Batch-evaluation perf baseline; regenerate with: "
            "python benchmarks/bench_batch.py  — gated by "
            "check_perf.py --batch (>= 5x single/batch on the "
            "compiled engine, >= 3x over the pinned pre-batch path, "
            "island runs bit-identical across kernel thread counts)"
        ),
        "engine": engine,
        "single_us_per_genome": single_us,
        "batch_us_per_genome": batch_us,
        "batch_speedup_x": speedup,
        **islands,
        "pinned": pinned,
        "machine_info": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
    }
    out_path.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out_path}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="output JSON path (default: benchmarks/BENCH_batch.json)",
    )
    args = parser.parse_args(argv)
    run(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
