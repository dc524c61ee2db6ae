"""Benchmarks of the fitness-evaluation engine.

Measures one EA-generation-sized batch of offspring evaluations on a
100-task daggen PTG (the paper's "large" instance class) through the
batch-kernel evaluator, plain and with sampled verification.

``test_report_speedup`` additionally records the batch on one thread
and on two OpenMP threads (``REPRO_CKERNEL_THREADS=2``) in
``results/evaluator_speedup.txt`` together with the machine's core
count — the thread speedup is hardware-bound (a single-core host cannot
show one).
"""

import os
import time

import numpy as np
import pytest

from repro.core import SerialEvaluator
from repro.core.evaluator import create_evaluator
from repro.platform import grelon
from repro.timemodels import SyntheticModel, TimeTable
from repro.workloads import DaggenParams, generate_daggen

from .conftest import BENCH_SEED, write_result

#: One (10 + 100)-EA generation's worth of offspring.
BATCH = 100


@pytest.fixture(scope="module")
def problem():
    ptg = generate_daggen(
        DaggenParams(
            num_tasks=100, width=0.5, regularity=0.2, density=0.5, jump=2
        ),
        rng=BENCH_SEED,
    )
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    rng = np.random.default_rng(BENCH_SEED)
    genomes = [
        rng.integers(
            1, cluster.num_processors + 1, size=ptg.num_tasks
        ).astype(np.int64)
        for _ in range(BATCH)
    ]
    return ptg, table, genomes


def test_evaluator_serial_batch(benchmark, problem):
    ptg, table, genomes = problem
    ev = SerialEvaluator(ptg, table)
    values = benchmark(ev.evaluate, genomes)
    assert min(values) > 0


def test_evaluator_verified_sample_batch(benchmark, problem):
    """Sampled differential verification must stay near-free."""
    ptg, table, genomes = problem
    with create_evaluator(ptg, table, verify="sample") as ev:
        ev.evaluate(genomes)  # first-batch spot check outside the timing
        values = benchmark(ev.evaluate, genomes)
    assert min(values) > 0


def test_verify_sample_overhead(problem):
    """``verify="sample"`` adds under 5 % to the benchmark batch."""
    ptg, table, genomes = problem

    def timed(verify, repeats=3, batches=20):
        best = float("inf")
        for _ in range(repeats):
            with create_evaluator(ptg, table, verify=verify) as ev:
                ev.evaluate(genomes)  # warm-up / first-batch check
                t0 = time.perf_counter()
                for _ in range(batches):
                    ev.evaluate(genomes)
                best = min(best, time.perf_counter() - t0)
        return best

    t_off = timed("off")
    t_sample = timed("sample")
    assert t_sample < t_off * 1.05, (
        f"verify='sample' overhead "
        f"{100 * (t_sample / t_off - 1):.2f}% exceeds 5%"
    )


def test_report_speedup(problem, results_dir):
    """Record one-thread vs. two-thread batch wall-times in results/."""
    ptg, table, genomes = problem

    def timed(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    serial = SerialEvaluator(ptg, table)
    t_serial = timed(lambda: serial.evaluate(genomes))

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CKERNEL_THREADS", "2")
        t_omp = timed(lambda: serial.evaluate(genomes))

    cores = os.cpu_count() or 1
    lines = [
        "Fitness-evaluation engine: batch of "
        f"{BATCH} offspring, 100-task daggen PTG, Grelon (120 procs)",
        f"host cores: {cores}",
        "",
        f"serial            : {t_serial * 1e3:9.2f} ms",
        f"OpenMP (2 threads): {t_omp * 1e3:9.2f} ms  "
        f"(speedup {t_serial / t_omp:5.2f}x)",
        "",
        "note: the thread speedup is bounded by the host's core count; "
        "both rows compute bit-identical makespans.",
    ]
    write_result("evaluator_speedup.txt", "\n".join(lines) + "\n")
