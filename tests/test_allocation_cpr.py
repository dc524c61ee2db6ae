"""Unit tests for the CPR one-step baseline."""

import numpy as np

from repro.allocation import CpaAllocator, CprAllocator
from repro.mapping import makespan_of
from repro.platform import Cluster
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.workloads import generate_fft


def table_for(ptg, P=8, model=None):
    cluster = Cluster("c", num_processors=P, speed_gflops=1.0)
    return TimeTable.build(model or AmdahlModel(), ptg, cluster)


class TestCpr:
    def test_allocations_in_bounds(self, irregular_ptg):
        table = table_for(irregular_ptg, P=8)
        alloc = CprAllocator().allocate(irregular_ptg, table)
        assert alloc.min() >= 1
        assert alloc.max() <= 8

    def test_monotone_improvement_over_serial(self, fft8_ptg):
        table = table_for(fft8_ptg, P=16)
        serial_ms = makespan_of(
            fft8_ptg, table, np.ones(39, dtype=np.int64)
        )
        cpr_alloc = CprAllocator().allocate(fft8_ptg, table)
        cpr_ms = makespan_of(fft8_ptg, table, cpr_alloc)
        assert cpr_ms <= serial_ms

    def test_one_step_at_least_matches_two_step(self, fft8_ptg):
        """CPR validates every step against the full schedule, so it
        never accepts a change that hurts — its makespan is <= CPA's
        mapped makespan on the same table, or very close."""
        for model in (AmdahlModel(), SyntheticModel()):
            table = table_for(fft8_ptg, P=16, model=model)
            cpa_ms = makespan_of(
                fft8_ptg,
                table,
                CpaAllocator().allocate(fft8_ptg, table),
            )
            cpr_ms = makespan_of(
                fft8_ptg,
                table,
                CprAllocator().allocate(fft8_ptg, table),
            )
            assert cpr_ms <= cpa_ms * 1.02, model.name

    def test_terminates_under_model2(self, irregular_ptg):
        table = table_for(irregular_ptg, P=32, model=SyntheticModel())
        alloc = CprAllocator().allocate(irregular_ptg, table)
        assert alloc.shape == (irregular_ptg.num_tasks,)

    def test_never_lands_on_penalized_sizes_unprofitably(self):
        """Under Model 2, CPR's schedule-validated growth avoids the
        pathological odd allocations CPA can step through."""
        ptg = generate_fft(4, rng=9)
        table = table_for(ptg, P=12, model=SyntheticModel())
        alloc = CprAllocator().allocate(ptg, table)
        ms_cpr = makespan_of(ptg, table, alloc)
        serial = makespan_of(
            ptg, table, np.ones(ptg.num_tasks, dtype=np.int64)
        )
        assert ms_cpr <= serial

    def test_max_iterations_cap(self, fft8_ptg):
        table = table_for(fft8_ptg, P=16)
        alloc = CprAllocator(max_iterations=2).allocate(
            fft8_ptg, table
        )
        assert (alloc - 1).sum() <= 2

    def test_single_task(self, single_task_ptg, chti_cluster):
        table = TimeTable.build(
            AmdahlModel(), single_task_ptg, chti_cluster
        )
        alloc = CprAllocator().allocate(single_task_ptg, table)
        # a single perfectly-divisible task: growth helps until P
        assert alloc[0] >= 1

    def test_registered_as_seed(self):
        from repro.core import make_allocator

        assert make_allocator("cpr").name == "cpr"
