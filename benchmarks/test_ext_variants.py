"""Extension experiment — comparing evolutionary methods
(the paper's first future-work item: "different evolutionary methods
could be compared to each other with respect to scheduling performance
and speed").

Runs the default variant panel on irregular 100-task PTGs (Grelon,
Model 2) and records the quality/speed table.  Structural assertions:

* EMTS10 produces the best (or tied-best) mean makespan of the panel;
* EMTS10 costs more wall time than EMTS5 (quality is bought with time).

The rejection strategy is no variant: every plus-selection run uses it
(``test_ablations.py::test_ablation_rejection`` checks it changes no
answer).
"""

import pytest

from repro.experiments import compare_variants
from repro.platform import grelon
from repro.timemodels import SyntheticModel
from repro.workloads import DaggenParams, generate_daggen

from .conftest import BENCH_SEED, write_result


@pytest.fixture(scope="module")
def result():
    ptgs = [
        generate_daggen(
            DaggenParams(
                num_tasks=100,
                width=0.5,
                regularity=0.2,
                density=0.2,
                jump=2,
            ),
            rng=s,
        )
        for s in range(3)
    ]
    return compare_variants(
        ptgs, grelon(), SyntheticModel(), seed=BENCH_SEED
    )


def test_variant_panel(benchmark, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)

    emts5 = result.outcome("emts5")
    emts10 = result.outcome("emts10")

    # more budget -> better (or equal) quality, at higher cost
    assert emts10.mean_makespan <= emts5.mean_makespan + 1e-9
    assert emts10.mean_seconds > emts5.mean_seconds

    write_result("ext_variants.txt", result.render())
