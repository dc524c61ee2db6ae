#!/usr/bin/env python
"""Time whole EMTS10 runs on one kernel thread and on two.

The only parallel path of the fitness engine is the batch kernel's
OpenMP row fan-out (``REPRO_CKERNEL_THREADS``).  This script times
complete ``emts10()`` runs (seeding, evolution, final mapping) on a
95-task FFT graph on Grelon under Model 1, in alternating pairs: each
pair runs the same seed once serially and once on two threads, checks
that both runs give the same makespan bits, and records both wall
times.  It prints the medians, the interquartile ranges and how many
pairs the threaded run won.

The engine is whatever this process loads: run it plainly for the
compiled kernel and with ``REPRO_NO_CKERNEL=1`` for the numpy
fallback, where the thread count has no effect.

    python benchmarks/bench_parallel_paths.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import AmdahlModel, emts10, grelon  # noqa: E402
from repro.mapping import kernel_for  # noqa: E402
from repro.timemodels import TimeTable  # noqa: E402
from repro.workloads import generate_fft  # noqa: E402

MODES = {"serial": "1", "OpenMP(2)": "2"}
PAIRS = 20


def timed_run(ptg, cluster, table, seed: int, threads: str):
    os.environ["REPRO_CKERNEL_THREADS"] = threads
    t0 = time.perf_counter()
    result = emts10().schedule(ptg, cluster, table, rng=seed)
    return time.perf_counter() - t0, float.hex(result.makespan)


def main() -> int:
    ptg = generate_fft(16, rng=1)
    cluster = grelon()
    table = TimeTable.build(AmdahlModel(), ptg, cluster)
    engine = kernel_for(table).engine
    timed_run(ptg, cluster, table, 0, "1")  # build and load outside timing

    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    wins = 0
    for seed in range(PAIRS):
        order = list(MODES) if seed % 2 == 0 else list(MODES)[::-1]
        digests = {}
        for mode in order:
            seconds, digests[mode] = timed_run(
                ptg, cluster, table, seed, MODES[mode]
            )
            times[mode].append(seconds)
        if len(set(digests.values())) != 1:
            raise SystemExit(f"seed {seed}: makespans differ {digests}")
        wins += times["OpenMP(2)"][-1] < times["serial"][-1]

    print(
        f"EMTS10, FFT-{ptg.num_tasks}, {cluster.name} "
        f"({cluster.num_processors} procs), Model 1; engine {engine}; "
        f"{PAIRS} alternating pairs, host cores {os.cpu_count()}"
    )
    for mode, values in times.items():
        q1, med, q3 = np.percentile(np.array(values) * 1e3, [25, 50, 75])
        print(f"  {mode:<10} median {med:8.2f} ms   IQR {q1:8.2f}-{q3:8.2f} ms")
    print(f"  OpenMP(2) faster in {wins}/{PAIRS} pairs; makespans identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
