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
    nothing is left per generation (no :class:`ObservedEvaluator`
    wrapper, no generation hook); per run, the ``kernel_build``,
    ``seeding`` and ``final_mapping`` steps still enter
    :func:`repro.obs.phase` with no tracer.  The benchmark times the
    phase entries and the real fitness work of EMTS5-sized runs (five
    lambda-sized batches each), interleaved min-of-reps, and reports
    the entries' time as a share of the work's.

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
from repro.obs import phase  # noqa: E402
from repro.platform import grelon  # noqa: E402
from repro.timemodels import SyntheticModel, TimeTable  # noqa: E402
from repro.workloads import DaggenParams, generate_daggen  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_obs.json"
BENCH_SEED = 20110926
#: one EA generation of EMTS5 offspring
LAMBDA = 25
#: generations of one EMTS5 run
GENERATIONS = 5
#: the steps EMTS times as trace phases, once per run
RUN_PHASES = ("kernel_build", "seeding", "final_mapping")


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
    ptg, table, runs: int = 40, reps: int = 9
) -> float:
    """Relative cost (%) of the disabled-instrumentation hooks.

    Per EMTS5 run, ``EMTS.schedule`` with observability off adds three
    :func:`repro.obs.phase` entries with no tracer to the run's work,
    ``GENERATIONS`` fitness batches.  The hooks and the batches are
    sequential code, so their costs add: each is timed alone over
    ``runs`` runs (min of ``reps``, interleaved on the same evaluator so
    cache state and CPU frequency drift cancel) and the hooks' time is
    reported as a share of the batches'.  A shared machine's drift
    between two whole loops is several percent, more than the 2 % gate,
    so timing the loops with and without the hooks and differencing
    them cannot resolve it.
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

    def hooks() -> float:
        t0 = time.perf_counter()
        for _ in range(runs):
            for name in RUN_PHASES:
                with phase(None, name):
                    pass
        return time.perf_counter() - t0

    def batches() -> float:
        t0 = time.perf_counter()
        for _ in range(runs):
            for _ in range(GENERATIONS):
                evaluator.evaluate(batch)
        return time.perf_counter() - t0

    t_hooks = t_batches = float("inf")
    for _ in range(reps):
        t_hooks = min(t_hooks, hooks())
        t_batches = min(t_batches, batches())
    evaluator.close()
    return t_hooks / t_batches * 100.0


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
