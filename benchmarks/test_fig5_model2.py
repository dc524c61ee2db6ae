"""E5 / Figure 5 — relative makespan under Model 2 (non-monotone),
EMTS5 (upper row) and EMTS10 (lower row).

Asserts the paper's findings for the non-monotone model:

* EMTS never loses to either baseline;
* the gains on Grelon are substantial (the heuristics stall at tiny
  allocations while EMTS keeps optimizing);
* EMTS10's mean relative makespan is >= EMTS5's in every panel (more
  budget cannot hurt under plus-selection and shared seeds);
* under Model 2 the baselines' allocations really do stall at <= 8
  processors (the paper's Section V-B explanation).

Set ``REPRO_BENCH_SCALE=1.0`` for the paper's full corpus.
"""

import pytest

from repro.allocation import HcpaAllocator, McpaAllocator
from repro.core import emts10
from repro.experiments.figures import generate_figure5
from repro.platform import grelon
from repro.timemodels import SyntheticModel, TimeTable
from repro.workloads import DaggenParams, generate_daggen

from .conftest import BENCH_SEED, bench_scale, write_result


@pytest.fixture(scope="module")
def fig5():
    return generate_figure5(
        seed=BENCH_SEED, scale=bench_scale(0.01)
    )


def test_figure5_grid(benchmark, fig5):
    # representative kernel: EMTS10 on an irregular 100-node PTG
    ptg = generate_daggen(
        DaggenParams(
            num_tasks=100, width=0.5, regularity=0.2, density=0.2, jump=2
        ),
        rng=BENCH_SEED,
    )
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    benchmark.pedantic(
        lambda: emts10().schedule(ptg, cluster, table, rng=BENCH_SEED),
        rounds=2,
        iterations=1,
    )

    row5, row10 = fig5.emts5_row, fig5.emts10_row

    # EMTS never loses
    for row in (row5, row10):
        for key, ci in row.cells.items():
            assert ci.mean >= 1.0 - 1e-9, key

    # significant gains on the larger platform (paper: "EMTS5
    # significantly reduces the makespan in all cases" on Grelon)
    for panel in row5.panels:
        best_gain = max(
            row5.cell(panel, "grelon", b).mean
            for b in row5.baselines
        )
        assert best_gain > 1.02, panel

    # more budget cannot hurt: EMTS10 >= EMTS5 per panel (small slack
    # for sampling noise at reduced corpus scale)
    for key, ci5 in row5.cells.items():
        ci10 = row10.cells[key]
        assert ci10.mean >= ci5.mean - 0.03, key

    # the Section V-B explanation: baselines stall at 4-8 processors
    alloc_mcpa = McpaAllocator().allocate(ptg, table)
    alloc_hcpa = HcpaAllocator().allocate(ptg, table)
    assert alloc_mcpa.max() <= 8
    assert alloc_hcpa.max() <= 8

    write_result("figure5.txt", fig5.render())
    from repro.experiments import write_csv

    write_result(
        "figure5.csv",
        write_csv(
            fig5.emts5_row.to_rows() + fig5.emts10_row.to_rows()
        ),
    )
