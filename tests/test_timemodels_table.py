"""Unit tests for TimeTable — the precomputed V x P lookup."""

import numpy as np
import pytest

from repro.exceptions import AllocationError, ModelError, TimeModelError
from repro.graph import chain
from repro.platform import Cluster
from repro.timemodels import (
    AmdahlModel,
    ExecutionTimeModel,
    SyntheticModel,
    TimeTable,
)


@pytest.fixture
def table():
    ptg = chain([4e9, 8e9], name="c2")
    cluster = Cluster("c", num_processors=4, speed_gflops=1.0)
    return TimeTable.build(AmdahlModel(), ptg, cluster)


class TestConstruction:
    def test_shape(self, table):
        assert table.shape == (2, 4)
        assert table.num_tasks == 2
        assert table.num_processors == 4

    def test_wrong_shape_rejected(self):
        ptg = chain([1e9], name="c1")
        cluster = Cluster("c", num_processors=4, speed_gflops=1.0)
        with pytest.raises(ModelError, match="shape"):
            TimeTable(ptg, cluster, np.ones((2, 4)))

    def test_nonpositive_entries_rejected(self):
        ptg = chain([1e9], name="c1")
        cluster = Cluster("c", num_processors=2, speed_gflops=1.0)
        with pytest.raises(ModelError, match="positive"):
            TimeTable(ptg, cluster, np.array([[1.0, 0.0]]))

    def test_nan_rejected(self):
        ptg = chain([1e9], name="c1")
        cluster = Cluster("c", num_processors=2, speed_gflops=1.0)
        with pytest.raises(ModelError):
            TimeTable(ptg, cluster, np.array([[1.0, np.nan]]))

    def test_array_readonly(self, table):
        with pytest.raises(ValueError):
            table.array[0, 0] = 99.0

    def test_table_owns_its_times(self):
        """An outside array is copied: the caller's stays writable, and
        a view of it taken before cannot write into the checked table."""
        a = np.ones((2, 3))
        view = a[:]
        t = TimeTable(
            chain([1e9, 1e9]),
            Cluster("c", num_processors=3, speed_gflops=1.0),
            a,
        )
        view[0, 0] = -5.0
        assert t.array[0, 0] == 1.0
        assert a.flags.writeable
        assert not t.array.flags.writeable

    def test_cut_equals_the_checked_constructor(self, table):
        """A sub-instance's table, cut without a second check, holds
        what the checking constructor builds from the same rows."""
        sub = table.ptg.induced([1], name="t1")
        cluster = Cluster("alive", num_processors=3, speed_gflops=1.0)
        cut = table.cut(sub, cluster, np.array([1]), "amdahl/frontier")
        built = TimeTable(sub, cluster, table.array[[1], :3])
        assert np.array_equal(cut.array, built.array)
        assert cut.shape == (1, 3) and cut.cluster is cluster
        assert cut.model_name == "amdahl/frontier"
        assert not cut.array.flags.writeable


class TestLookup:
    def test_time(self, table):
        assert table.time(0, 1) == pytest.approx(4.0)
        assert table.time(0, 4) == pytest.approx(1.0)
        assert table.time(1, 2) == pytest.approx(4.0)

    def test_time_out_of_range(self, table):
        with pytest.raises(AllocationError):
            table.time(0, 0)
        with pytest.raises(AllocationError):
            table.time(0, 5)

    def test_times_for_vectorized(self, table):
        times = table.times_for(np.array([2, 4]))
        assert np.allclose(times, [2.0, 2.0])

    def test_times_for_all_ones(self, table):
        assert np.allclose(table.times_for(np.array([1, 1])), [4.0, 8.0])


class TestGains:
    def test_gain_formula(self, table):
        g = table.gains(np.array([1, 1]))
        # T(v,1) - T(v,2) = 4-2 = 2 and 8-4 = 4
        assert np.allclose(g, [2.0, 4.0])

    def test_gain_at_cap_is_minus_inf(self, table):
        g = table.gains(np.array([4, 4]))
        assert np.all(np.isneginf(g))

    def test_negative_gain_under_model2(self):
        from repro.graph import PTG, Task

        ptg = PTG(
            [Task("t", work=6e9, alpha=0.3)], [], name="c1"
        )
        cluster = Cluster("c", num_processors=4, speed_gflops=1.0)
        t = TimeTable.build(SyntheticModel(), ptg, cluster)
        # growing 2 -> 3 procs hits the 1.3 odd penalty, which outweighs
        # the Amdahl gain at alpha = 0.3
        assert t.gains(np.array([2]))[0] < 0


class TestAreas:
    def test_work_area_all_ones(self, table):
        assert table.work_area(np.array([1, 1])) == pytest.approx(12.0)

    def test_perfect_scaling_keeps_area_constant(self):
        ptg = chain([8e9], name="c1")
        cluster = Cluster("c", num_processors=8, speed_gflops=1.0)
        t = TimeTable.build(AmdahlModel(), ptg, cluster)
        # alpha = 0: p * T(p) is constant
        assert t.work_area(np.array([8])) == pytest.approx(
            t.work_area(np.array([1]))
        )

    def test_average_area(self, table):
        assert table.average_area(np.array([1, 1])) == pytest.approx(
            3.0
        )

    def test_imperfect_scaling_increases_area(self):
        b = chain([8e9], name="c1")
        tasks = [b.task(0).with_updates(alpha=0.5)]
        from repro.graph import PTG

        ptg = PTG(tasks, [], name="seq-heavy")
        cluster = Cluster("c", num_processors=8, speed_gflops=1.0)
        t = TimeTable.build(AmdahlModel(), ptg, cluster)
        assert t.work_area(np.array([8])) > t.work_area(np.array([1]))


class TestHelpers:
    def test_is_monotone(self, table):
        assert table.is_monotone()

    def test_best_allocation_monotone_model(self, table):
        assert table.best_allocation(0) == 4

    def test_best_allocation_non_monotone(self):
        ptg = chain([6e9], name="c1")
        cluster = Cluster("c", num_processors=3, speed_gflops=1.0)
        t = TimeTable.build(SyntheticModel(), ptg, cluster)
        # T(1)=6, T(2)=3, T(3)=2*1.3=2.6 -> best is 3 procs here
        assert t.best_allocation(0) == 3

    def test_model_name_recorded(self, table):
        assert table.model_name == "model1-amdahl"


class TestTimeModelError:
    """Poisoned predictions must be rejected with a full diagnosis."""

    def test_table_diagnoses_bad_entry(self):
        ptg = chain([1e9, 2e9], name="c2")
        cluster = Cluster("c", num_processors=3, speed_gflops=1.0)
        good = np.ones((2, 3))
        for poison in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            bad = good.copy()
            bad[1, 2] = poison
            with pytest.raises(TimeModelError) as err:
                TimeTable(ptg, cluster, bad, model_name="probe")
            exc = err.value
            assert exc.task == ptg.task(1).name
            assert exc.p == 3
            assert exc.model == "probe"
            assert "probe" in str(exc)

    def test_model_time_guard(self):
        class PoisonModel(ExecutionTimeModel):
            name = "poison"

            def time(self, task, p, cluster):
                return self._check_time(float("nan"), task, p)

        ptg = chain([1e9], name="c1")
        cluster = Cluster("c", num_processors=2, speed_gflops=1.0)
        with pytest.raises(TimeModelError) as err:
            PoisonModel().time(ptg.task(0), 1, cluster)
        assert err.value.model == "poison"
        assert err.value.p == 1
        with pytest.raises(TimeModelError):
            TimeTable.build(PoisonModel(), ptg, cluster)

    def test_is_model_error_subclass(self):
        # callers catching the old ModelError keep working
        assert issubclass(TimeModelError, ModelError)
