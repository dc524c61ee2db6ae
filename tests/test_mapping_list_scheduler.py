"""Unit tests for the bottom-level list scheduler (the paper's mapping
step and EMTS's fitness function)."""

import numpy as np
import pytest

from repro.exceptions import AllocationError
from repro.graph import PTG, PTGBuilder, Task, chain
from repro.mapping import (
    check_allocation,
    makespan_of,
    map_allocations,
)
from repro.platform import Cluster
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.verify import ScheduleVerifier


def table_for(ptg, P=4, speed=1.0, model=None):
    cluster = Cluster("c", num_processors=P, speed_gflops=speed)
    return TimeTable.build(model or AmdahlModel(), ptg, cluster)


class TestCheckAllocation:
    def test_valid_passthrough(self, diamond_ptg):
        a = check_allocation(np.array([1, 2, 3, 4]), diamond_ptg, 4)
        assert a.dtype == np.int64

    def test_float_integers_accepted(self, diamond_ptg):
        a = check_allocation(
            np.array([1.0, 2.0, 3.0, 4.0]), diamond_ptg, 4
        )
        assert a.tolist() == [1, 2, 3, 4]

    def test_fractional_rejected(self, diamond_ptg):
        with pytest.raises(AllocationError, match="integers"):
            check_allocation(np.array([1.5, 1, 1, 1]), diamond_ptg, 4)

    def test_out_of_range_rejected(self, diamond_ptg):
        with pytest.raises(AllocationError, match="lie in"):
            check_allocation(np.array([0, 1, 1, 1]), diamond_ptg, 4)
        with pytest.raises(AllocationError, match="lie in"):
            check_allocation(np.array([1, 1, 1, 5]), diamond_ptg, 4)

    def test_wrong_shape_rejected(self, diamond_ptg):
        with pytest.raises(AllocationError, match="shape"):
            check_allocation(np.array([1, 1]), diamond_ptg, 4)

    INT64_MIN = np.iinfo(np.int64).min
    RANGE = "allocations must lie in [1, 4]; got range [{}, {}]"
    INTEGERS = "allocations must be integers"

    @pytest.mark.parametrize(
        "alloc, expected",
        [
            (np.array([True, True, True, True]), [1, 1, 1, 1]),
            (np.array([True, False, True, True]), RANGE.format(0, 1)),
            (np.array([1, 2, 3, 4], dtype=np.uint8), [1, 2, 3, 4]),
            (np.array([4, 3, 2, 1], dtype=np.uint64), [4, 3, 2, 1]),
            (
                np.array([2**64 - 1, 1, 1, 1], dtype=np.uint64),
                RANGE.format(-1, 1),
            ),
            (np.array([1.0, 2.0, 3.0, 4.0]), [1, 2, 3, 4]),
            (np.array([1.0 + 1e-12, 2.0, 3.0, 4.0]), [1, 2, 3, 4]),
            (np.array([1.5, 1.0, 1.0, 1.0]), INTEGERS),
            (np.array([np.nan, 1.0, 1.0, 1.0]), INTEGERS),
            (np.array([1.0, 1.0, 1.0, 5.0]), RANGE.format(1, 5)),
            (np.array([0, 1, 1, 1]), RANGE.format(0, 1)),
            (np.array([1, 1, 1, 5]), RANGE.format(1, 5)),
            (np.array([INT64_MIN, 1, 1, 1]), RANGE.format(INT64_MIN, 1)),
            ([1, 2, 3, 4], [1, 2, 3, 4]),
            (np.array([1, 1]), "allocation has shape (2,), expected (4,)"),
            (np.array(3), "allocation has shape (), expected (4,)"),
            (
                np.ones((1, 4), dtype=np.int64),
                "allocation has shape (1, 4), expected (4,)",
            ),
        ],
    )
    def test_types_and_messages(self, diamond_ptg, alloc, expected):
        """Every input gives either a fresh int64 answer or exactly
        this AllocationError message, whatever its dtype or shape."""
        if isinstance(expected, str):
            with pytest.raises(AllocationError) as info:
                check_allocation(alloc, diamond_ptg, 4)
            assert str(info.value) == expected
            return
        out = check_allocation(alloc, diamond_ptg, 4)
        assert out.dtype == np.int64 and out.tolist() == expected
        assert not np.shares_memory(out, np.asarray(alloc))


class TestHandComputedSchedules:
    def test_single_task(self, single_task_ptg):
        table = table_for(single_task_ptg, P=2, speed=4.3)
        s = map_allocations(
            single_task_ptg, table, np.array([1])
        )
        assert s.makespan == pytest.approx(1.0)
        assert s.proc_sets[0].tolist() == [0]

    def test_chain_serializes(self):
        ptg = chain([1e9, 2e9, 3e9])
        table = table_for(ptg, P=4)
        s = map_allocations(ptg, table, np.ones(3, dtype=np.int64))
        assert s.makespan == pytest.approx(6.0)
        assert s.start.tolist() == [0.0, 1.0, 3.0]

    def test_independent_tasks_pack(self):
        ptg = PTG(
            [Task(f"t{i}", work=1e9) for i in range(4)], []
        )
        table = table_for(ptg, P=2)
        s = map_allocations(ptg, table, np.ones(4, dtype=np.int64))
        # 4 unit tasks on 2 processors: 2 waves
        assert s.makespan == pytest.approx(2.0)

    def test_wide_allocation_serializes_parallel_tasks(self):
        ptg = PTG(
            [Task(f"t{i}", work=1e9) for i in range(2)], []
        )
        table = table_for(ptg, P=2)
        # each task takes the whole machine: forced serialization
        s = map_allocations(ptg, table, np.array([2, 2]))
        assert s.makespan == pytest.approx(1.0)  # alpha=0: T(2)=0.5 each

    def test_priority_order_highest_bl_first(self):
        # two ready tasks, one long chain behind the second
        b = PTGBuilder()
        short = b.add_task("short", work=1e9)
        long_head = b.add_task("long_head", work=1e9)
        long_tail = b.add_task("long_tail", work=9e9)
        b.add_edge(long_head, long_tail)
        ptg = b.build()
        table = table_for(ptg, P=1)
        s = map_allocations(ptg, table, np.ones(3, dtype=np.int64))
        # long_head has bl 10 > short's 1: must run first; once it ends,
        # long_tail (bl 9) outranks short (bl 1) in the ready queue too
        assert s.start[long_head] == 0.0
        assert s.start[long_tail] == pytest.approx(1.0)
        assert s.start[short] == pytest.approx(10.0)
        assert s.makespan == pytest.approx(11.0)

    def test_fork_join_hand_computed(self, fork_join_ptg):
        table = table_for(fork_join_ptg, P=3)
        alloc = np.ones(8, dtype=np.int64)
        s = map_allocations(fork_join_ptg, table, alloc)
        # head 0.1s, then 6 x 1s branches on 3 procs = 2 waves, tail 0.1s
        assert s.makespan == pytest.approx(0.1 + 2.0 + 0.1)


class TestConsistency:
    def test_fast_path_equals_full_schedule(
        self, fft8_ptg, grelon_cluster, rng
    ):
        table = TimeTable.build(
            SyntheticModel(), fft8_ptg, grelon_cluster
        )
        for _ in range(10):
            alloc = rng.integers(
                1, 121, size=fft8_ptg.num_tasks, dtype=np.int64
            )
            fast = makespan_of(fft8_ptg, table, alloc)
            full = map_allocations(fft8_ptg, table, alloc)
            assert fast == pytest.approx(full.makespan)

    def test_schedules_always_valid(self, irregular_ptg, rng):
        table = table_for(irregular_ptg, P=16)
        for _ in range(10):
            alloc = rng.integers(
                1, 17, size=irregular_ptg.num_tasks, dtype=np.int64
            )
            s = map_allocations(irregular_ptg, table, alloc)
            ScheduleVerifier(irregular_ptg, table).verify(s)

    def test_deterministic(self, irregular_ptg):
        table = table_for(irregular_ptg, P=8)
        alloc = np.full(irregular_ptg.num_tasks, 2, dtype=np.int64)
        s1 = map_allocations(irregular_ptg, table, alloc)
        s2 = map_allocations(irregular_ptg, table, alloc)
        assert np.array_equal(s1.start, s2.start)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(s1.proc_sets, s2.proc_sets)
        )


class TestRejectionStrategy:
    def test_abort_returns_inf(self, fft8_ptg, grelon_cluster):
        table = TimeTable.build(
            SyntheticModel(), fft8_ptg, grelon_cluster
        )
        alloc = np.ones(fft8_ptg.num_tasks, dtype=np.int64)
        honest = makespan_of(fft8_ptg, table, alloc)
        # an incumbent far below the real makespan triggers the abort
        assert makespan_of(
            fft8_ptg, table, alloc, abort_above=honest / 10
        ) == np.inf

    def test_loose_bound_does_not_abort(self, fft8_ptg, grelon_cluster):
        table = TimeTable.build(
            SyntheticModel(), fft8_ptg, grelon_cluster
        )
        alloc = np.ones(fft8_ptg.num_tasks, dtype=np.int64)
        honest = makespan_of(fft8_ptg, table, alloc)
        assert makespan_of(
            fft8_ptg, table, alloc, abort_above=honest * 10
        ) == pytest.approx(honest)

    def test_abort_bound_is_sound(self, irregular_ptg, rng):
        """If the mapper aborts, the true makespan really is >= bound."""
        table = table_for(irregular_ptg, P=8)
        for _ in range(20):
            alloc = rng.integers(
                1, 9, size=irregular_ptg.num_tasks, dtype=np.int64
            )
            honest = makespan_of(irregular_ptg, table, alloc)
            bound = honest * 0.9
            aborted = makespan_of(
                irregular_ptg, table, alloc, abort_above=bound
            )
            if np.isinf(aborted):
                assert honest >= bound


class TestPriorityVariants:
    def test_all_priorities_produce_valid_schedules(
        self, irregular_ptg, rng
    ):
        from repro.mapping import PRIORITIES

        table = table_for(irregular_ptg, P=8)
        alloc = rng.integers(
            1, 9, size=irregular_ptg.num_tasks, dtype=np.int64
        )
        for priority in PRIORITIES:
            s = map_allocations(
                irregular_ptg, table, alloc, priority=priority
            )
            ScheduleVerifier(irregular_ptg, table).verify(s)

    def test_unknown_priority_rejected(self, diamond_ptg):
        table = table_for(diamond_ptg, P=4)
        with pytest.raises(AllocationError, match="unknown priority"):
            makespan_of(
                diamond_ptg,
                table,
                np.ones(4, dtype=np.int64),
                priority="magic",
            )

    def test_bottom_level_beats_naive_on_average(self, rng):
        """The paper's priority rule earns its keep: over several
        irregular PTGs, bottom-level ordering is at least as good as
        FIFO on average (and typically strictly better)."""
        from repro.workloads import DaggenParams, generate_daggen

        wins = ties = losses = 0
        for seed in range(8):
            ptg = generate_daggen(
                DaggenParams(
                    num_tasks=40,
                    width=0.8,
                    regularity=0.2,
                    density=0.2,
                    jump=2,
                ),
                rng=seed,
            )
            table = table_for(ptg, P=4)
            alloc = np.ones(ptg.num_tasks, dtype=np.int64)
            bl_ms = makespan_of(ptg, table, alloc)
            fifo_ms = makespan_of(
                ptg, table, alloc, priority="topological"
            )
            if bl_ms < fifo_ms - 1e-9:
                wins += 1
            elif bl_ms > fifo_ms + 1e-9:
                losses += 1
            else:
                ties += 1
        assert wins + ties >= losses  # no systematic regression
        assert wins >= 1  # and it genuinely helps somewhere

    def test_lower_bound_is_sound_and_tight_for_chain(self):
        from repro.mapping import makespan_lower_bound

        ptg = chain([1e9, 2e9, 3e9])
        table = table_for(ptg, P=4)
        alloc = np.ones(3, dtype=np.int64)
        lb = makespan_lower_bound(ptg, table, alloc)
        ms = makespan_of(ptg, table, alloc)
        assert lb <= ms + 1e-9
        assert lb == pytest.approx(ms)  # a chain is its own CP

    def test_lower_bound_area_branch(self):
        from repro.graph import PTG, Task
        from repro.mapping import makespan_lower_bound

        # 4 independent unit tasks on 2 procs: area bound 2 > CP 1
        ptg = PTG(
            [Task(f"t{i}", work=1e9) for i in range(4)], []
        )
        table = table_for(ptg, P=2)
        lb = makespan_lower_bound(
            ptg, table, np.ones(4, dtype=np.int64)
        )
        assert lb == pytest.approx(2.0)


class TestPriorityTies:
    def test_equal_bl_breaks_by_index(self):
        ptg = PTG(
            [Task("x", work=1e9), Task("y", work=1e9)], []
        )
        table = table_for(ptg, P=1)
        s = map_allocations(ptg, table, np.ones(2, dtype=np.int64))
        assert s.start[0] == 0.0  # lower index first
        assert s.start[1] == pytest.approx(1.0)
