#!/usr/bin/env python
"""Measure the observability layer's performance envelope.

Writes ``benchmarks/BENCH_obs.json`` (the machine-readable baseline the
CI perf-smoke job regenerates and gates) with three numbers:

``fitness_evals_per_sec``
    End-to-end EMTS5 throughput with observability off — fitness
    evaluations divided by optimization wall time, the quantity the
    paper's runtime table is built from.
``batch_evals_per_sec``
    Raw :meth:`ScheduleKernel.makespan_batch` throughput (genomes/s) on
    an EA-generation-sized block; the ceiling the evaluator stack can
    approach.
``disabled_overhead_pct``
    The cost of the instrumentation hooks that remain on the hot path
    when observability is *disabled*.  With ``trace``/``metrics`` unset
    the only added per-generation work is one :data:`NULL_PROFILER`
    phase context (the :class:`ObservedEvaluator` wrapper is never even
    constructed), so the benchmark times the real per-generation work
    (one lambda-sized fitness batch) with and without that hook,
    interleaved min-of-reps, and reports the relative difference.

``python benchmarks/check_perf.py --obs benchmarks/BENCH_obs.json``
enforces the <2 % disabled-overhead gate (override with
``REPRO_OBS_MAX_OVERHEAD``).
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
from repro.obs import NULL_PROFILER  # noqa: E402
from repro.platform import grelon  # noqa: E402
from repro.timemodels import SyntheticModel, TimeTable  # noqa: E402
from repro.workloads import DaggenParams, generate_daggen  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_obs.json"
BENCH_SEED = 20110926
#: one EA generation of EMTS5 offspring
LAMBDA = 25


def _problem():
    ptg = generate_daggen(
        DaggenParams(
            num_tasks=100, width=0.5, regularity=0.2, density=0.5, jump=2
        ),
        rng=BENCH_SEED,
    )
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    kernel_for(table)  # exclude one-off kernel construction
    return ptg, cluster, table


def measure_fitness_throughput(ptg, cluster, table) -> float:
    """Evaluations per second of a full EMTS5 run, observability off."""
    result = emts5().schedule(ptg, cluster, table, rng=BENCH_SEED)
    return result.evaluations / max(result.elapsed_seconds, 1e-9)


def measure_batch_throughput(ptg, table, reps: int = 7) -> float:
    """Genomes per second through the raw kernel batch path."""
    kernel = kernel_for(table)
    rng = spawn(BENCH_SEED, "obs-bench", "batch")
    block = rng.integers(
        1, table.num_processors + 1, size=(100, ptg.num_tasks),
        dtype=np.int64,
    )
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel.makespan_batch(block)
        best = min(best, time.perf_counter() - t0)
    return len(block) / best


def measure_disabled_overhead(
    ptg, table, generations: int = 200, reps: int = 9
) -> float:
    """Relative cost (%) of the disabled-instrumentation hooks.

    Per simulated generation the "hooked" loop runs exactly the code
    ``evolve`` adds when observability is off — one null profiler phase
    context — before the generation's fitness batch; the "bare" loop
    runs the batch alone.  Both are timed interleaved (min of ``reps``)
    on the same evaluator so cache state and CPU frequency drift cancel.
    """
    evaluator = create_evaluator(ptg, table)
    rng = spawn(BENCH_SEED, "obs-bench", "overhead")
    batch = [
        rng.integers(
            1, table.num_processors + 1, size=ptg.num_tasks,
            dtype=np.int64,
        )
        for _ in range(LAMBDA)
    ]
    evaluator.evaluate(batch)  # warm-up

    def hooked() -> float:
        t0 = time.perf_counter()
        for _ in range(generations):
            with NULL_PROFILER.phase("mutation"):
                pass
            evaluator.evaluate(batch)
        return time.perf_counter() - t0

    def bare() -> float:
        t0 = time.perf_counter()
        for _ in range(generations):
            evaluator.evaluate(batch)
        return time.perf_counter() - t0

    t_hooked = min(hooked() for _ in range(reps))
    t_bare = min(bare() for _ in range(reps))
    evaluator.close()
    return (t_hooked - t_bare) / t_bare * 100.0


def run(out_path: Path) -> dict:
    ptg, cluster, table = _problem()
    print("measuring EMTS5 fitness throughput ...")
    fitness = measure_fitness_throughput(ptg, cluster, table)
    print(f"  {fitness:,.0f} evals/s")
    print("measuring kernel batch throughput ...")
    batch = measure_batch_throughput(ptg, table)
    print(f"  {batch:,.0f} genomes/s")
    print("measuring disabled-instrumentation overhead ...")
    overhead = measure_disabled_overhead(ptg, table)
    print(f"  {overhead:+.3f} %")
    result = {
        "comment": (
            "Observability perf baseline; regenerate with: "
            "python benchmarks/bench_obs.py  — gated by "
            "check_perf.py --obs (REPRO_OBS_MAX_OVERHEAD, default 2%)"
        ),
        "fitness_evals_per_sec": fitness,
        "batch_evals_per_sec": batch,
        "disabled_overhead_pct": overhead,
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
        help="output JSON path (default: benchmarks/BENCH_obs.json)",
    )
    args = parser.parse_args(argv)
    run(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
