"""E2 / Figure 2 — the allocation-vector encoding of individuals.

Figure 2 is an illustration; its executable counterpart here round-trips
the example encoding through the library's allocation check, the mapper
and the schedule verifier, and benchmarks the encode/check/describe
path.
"""

import numpy as np

from repro.experiments.figures import generate_figure2
from repro.mapping import check_allocation, map_allocations
from repro.platform import Cluster
from repro.timemodels import AmdahlModel, TimeTable
from repro.verify import ScheduleVerifier

from .conftest import write_result


def test_figure2_encoding(benchmark):
    fig = benchmark(generate_figure2)

    # the individual is a feasible allocation vector for an 8-proc cluster
    genome = check_allocation(fig.genome, fig.ptg, 8)

    # and it maps to a valid schedule (position i drives task v_i)
    cluster = Cluster("enc", num_processors=8, speed_gflops=1.0)
    table = TimeTable.build(AmdahlModel(), fig.ptg, cluster)
    schedule = map_allocations(fig.ptg, table, genome)
    ScheduleVerifier(fig.ptg, table).verify(schedule)
    assert np.array_equal(schedule.allocations, genome)

    write_result("figure2.txt", fig.render())
