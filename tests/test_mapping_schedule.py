"""Unit tests for the Schedule data model, and the invariants
:class:`~repro.verify.ScheduleVerifier` judges it by (each violation
asserted by its ``kind``)."""

import numpy as np
import pytest

from repro.exceptions import ScheduleError, VerificationError
from repro.graph import PTG, Task, chain
from repro.mapping import Schedule
from repro.platform import Cluster
from repro.timemodels import TimeTable
from repro.verify import ScheduleVerifier


@pytest.fixture
def cluster():
    return Cluster("c", num_processors=3, speed_gflops=1.0)


@pytest.fixture
def valid_schedule(cluster):
    """chain of 2 tasks: t0 on P0 [0,1), t1 on P0+P1 [1,3)."""
    ptg = chain([1e9, 4e9], name="c2")
    return Schedule(
        ptg,
        cluster,
        start=np.array([0.0, 1.0]),
        finish=np.array([1.0, 3.0]),
        proc_sets=[np.array([0]), np.array([0, 1])],
    )


class TestBasics:
    def test_makespan(self, valid_schedule):
        assert valid_schedule.makespan == 3.0

    def test_allocations(self, valid_schedule):
        assert valid_schedule.allocations.tolist() == [1, 2]

    def test_utilization(self, valid_schedule):
        # busy area = 1*1 + 2*2 = 5 of 3*3 = 9
        assert valid_schedule.utilization == pytest.approx(5 / 9)

    def test_task_view(self, valid_schedule):
        st = valid_schedule.task(1)
        assert st.name == "t1"
        assert st.processors == (0, 1)
        assert st.duration == pytest.approx(2.0)
        assert st.allocation == 2

    def test_tasks_by_start(self, valid_schedule):
        names = [t.name for t in valid_schedule.tasks_by_start()]
        assert names == ["t0", "t1"]

    def test_shape_mismatch_rejected(self, cluster):
        ptg = chain([1e9], name="c1")
        with pytest.raises(ScheduleError, match="shape"):
            Schedule(
                ptg,
                cluster,
                start=np.zeros(2),
                finish=np.zeros(2),
                proc_sets=[np.array([0])] * 2,
            )

    def test_proc_set_count_mismatch(self, cluster):
        ptg = chain([1e9], name="c1")
        with pytest.raises(ScheduleError, match="processor sets"):
            Schedule(
                ptg,
                cluster,
                start=np.zeros(1),
                finish=np.ones(1),
                proc_sets=[],
            )


def _violation(schedule: Schedule, table: TimeTable | None = None) -> str:
    """The ``kind`` of the first invariant ``schedule`` violates."""
    verifier = ScheduleVerifier(
        schedule.ptg, table, cluster=schedule.cluster
    )
    with pytest.raises(VerificationError) as info:
        verifier.verify(schedule)
    return info.value.kind


def _one_task(cluster, start, finish, procs) -> Schedule:
    return Schedule(
        chain([1e9], name="c1"),
        cluster,
        start=np.array([start]),
        finish=np.array([finish]),
        proc_sets=[np.array(procs, dtype=np.int64)],
    )


def _times(valid_schedule, t1_on_two: float) -> TimeTable:
    """A table giving t0 1 s on one processor and t1 ``t1_on_two`` s on
    two (the other entries are never read)."""
    return TimeTable(
        valid_schedule.ptg,
        valid_schedule.cluster,
        np.array([[1.0, 0.6, 0.5], [4.0, t1_on_two, 1.5]]),
    )


class TestValidation:
    def test_valid_passes(self, valid_schedule, cluster):
        report = ScheduleVerifier(
            valid_schedule.ptg, cluster=cluster
        ).verify(valid_schedule)
        assert report.makespan == 3.0
        assert not report.durations_checked

    def test_valid_with_times(self, valid_schedule):
        table = _times(valid_schedule, 2.0)
        report = ScheduleVerifier(valid_schedule.ptg, table).verify(
            valid_schedule
        )
        assert report.durations_checked

    def test_wrong_duration_detected(self, valid_schedule):
        table = _times(valid_schedule, 5.0)
        assert _violation(valid_schedule, table) == "wrong-duration"

    def test_negative_start_detected(self, cluster):
        s = _one_task(cluster, -1.0, 0.5, [0])
        assert _violation(s) == "negative-start"

    def test_finish_before_start_detected(self, cluster):
        s = _one_task(cluster, 2.0, 1.0, [0])
        assert _violation(s) == "negative-duration"

    @pytest.mark.parametrize(
        "start, finish",
        [(np.nan, np.nan), (0.0, np.inf), (-np.inf, 1.0)],
        ids=["nan", "inf-finish", "minus-inf-start"],
    )
    def test_non_finite_detected(self, cluster, start, finish):
        s = _one_task(cluster, start, finish, [0])
        assert _violation(s) == "non-finite"

    def test_successor_of_a_nan_placed_task_is_rejected(self, cluster):
        ptg = chain([1e9, 1e9], name="c2")
        s = Schedule(
            ptg,
            cluster,
            start=np.array([np.nan, 0.0]),
            finish=np.array([np.nan, 1.0]),
            proc_sets=[np.array([0]), np.array([1])],
        )
        assert _violation(s) == "non-finite"

    def test_precedence_violation_detected(self, cluster):
        ptg = chain([1e9, 1e9], name="c2")
        s = Schedule(
            ptg,
            cluster,
            start=np.array([0.0, 0.5]),  # t1 starts before t0 ends
            finish=np.array([1.0, 1.5]),
            proc_sets=[np.array([0]), np.array([1])],
        )
        assert _violation(s) == "precedence"

    def test_double_booking_detected(self, cluster):
        ptg = PTG(
            [Task("a", work=1e9), Task("b", work=1e9)], []
        )
        s = Schedule(
            ptg,
            cluster,
            start=np.array([0.0, 0.5]),
            finish=np.array([1.0, 1.5]),
            proc_sets=[np.array([0]), np.array([0])],  # overlap on P0
        )
        assert _violation(s) == "overlap"

    def test_empty_proc_set_detected(self, cluster):
        s = _one_task(cluster, 0.0, 1.0, [])
        assert _violation(s) == "allocation-empty"

    def test_duplicate_processor_detected(self, cluster):
        s = _one_task(cluster, 0.0, 1.0, [1, 1])
        assert _violation(s) == "allocation-duplicate"

    def test_unknown_processor_detected(self, cluster):
        s = _one_task(cluster, 0.0, 1.0, [7])
        assert _violation(s) == "allocation-range"

    def test_back_to_back_on_same_processor_ok(self, cluster):
        ptg = chain([1e9, 1e9], name="c2")
        s = Schedule(
            ptg,
            cluster,
            start=np.array([0.0, 1.0]),
            finish=np.array([1.0, 2.0]),
            proc_sets=[np.array([0]), np.array([0])],
        )
        # touching intervals are fine
        ScheduleVerifier(ptg, cluster=cluster).verify(s)
