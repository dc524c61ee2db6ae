"""Property suite: population-at-once batches are bit-identical to
single-genome calls.

Randomized sweep over (graph, platform, lambda) triples — 216 cases,
each comparing ``evaluate_batch`` on a stacked block against one
``evaluate`` call per genome, on both the compiled kernel and the numpy
fallback, with and without a rejection bound.  The batch entry point is
a pure execution optimization; any single-ULP divergence here is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import spawn
from repro.core.evaluator import SerialEvaluator
from repro.mapping.kernel import kernel_for
from repro.platform import Cluster
from repro.timemodels import SyntheticModel, TimeTable
from repro.workloads import (
    DaggenParams,
    generate_fft,
    generate_strassen,
    generate_daggen,
)

#: (graph-kind, platform-size) grid; 3 seeds x 3 lambdas each = 216
#: random batch-vs-single cases per backend run of this module
GRAPHS = ["fft", "strassen", "daggen-sparse", "daggen-dense"]
PLATFORMS = [3, 17, 64]
SEEDS = [1, 2, 3]
LAMBDAS = [1, 7, 30]


def _graph(kind: str, seed: int):
    if kind == "fft":
        return generate_fft(4, rng=seed)
    if kind == "strassen":
        return generate_strassen(rng=seed)
    density = 0.2 if kind == "daggen-sparse" else 0.7
    return generate_daggen(
        DaggenParams(
            num_tasks=40,
            width=0.5,
            regularity=0.3,
            density=density,
            jump=2,
        ),
        rng=seed,
    )


def _cases():
    for kind in GRAPHS:
        for procs in PLATFORMS:
            for seed in SEEDS:
                yield kind, procs, seed


@pytest.mark.parametrize(
    "kind,procs,seed",
    list(_cases()),
    ids=[f"{k}-p{p}-s{s}" for k, p, s in _cases()],
)
@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_batch_matches_single_calls(kind, procs, seed, backend):
    ptg = _graph(kind, seed)
    cluster = Cluster(
        name=f"rand-{procs}", num_processors=procs, speed_gflops=3.2
    )
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    if backend == "numpy":
        # strip the native library from this table's kernel: the numpy
        # batch path must stay bit-identical too
        kernel_for(table)._c = None
    elif kernel_for(table).engine != "c":
        pytest.skip("compiled kernel unavailable")
    rng = spawn(20110926, "prop-batch", f"{kind}-{procs}-{seed}")
    with SerialEvaluator(ptg, table) as ev:
        for lam in LAMBDAS:
            block = rng.integers(
                1, procs + 1, size=(lam, ptg.num_tasks), dtype=np.int64
            )
            singles = [ev.evaluate([g])[0] for g in block]
            assert ev.evaluate_batch(block) == singles
            # bounded evaluation: rejection must batch identically
            finite = [v for v in singles if v != float("inf")]
            if finite:
                bound = sorted(finite)[len(finite) // 2]
                bounded_singles = [
                    ev.evaluate([g], abort_above=bound)[0]
                    for g in block
                ]
                assert (
                    ev.evaluate_batch(block, abort_above=bound)
                    == bounded_singles
                )
