"""Failure-injection property tests (hypothesis).

Start from a provably valid schedule, inject one random corruption, and
require both independent checkers, :class:`~repro.verify.ScheduleVerifier`
(which must name the violated invariant by its ``kind``) and the
discrete-event simulator, to reject it.  This guards the guards: a
checker that silently accepts broken schedules would let scheduler bugs
masquerade as good results.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError, VerificationError
from repro.graph import PTG, Task
from repro.mapping import Schedule, map_allocations
from repro.platform import Cluster
from repro.simulator import simulate
from repro.timemodels import AmdahlModel, TimeTable
from repro.verify import ScheduleVerifier


@st.composite
def valid_schedules(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    tasks = [
        Task(
            f"t{i}",
            work=draw(st.floats(min_value=1e8, max_value=1e10)),
            alpha=draw(st.floats(min_value=0.0, max_value=0.3)),
        )
        for i in range(n)
    ]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    ptg = PTG(tasks, edges)
    P = draw(st.integers(min_value=2, max_value=6))
    cluster = Cluster("f", num_processors=P, speed_gflops=1.0)
    table = TimeTable.build(AmdahlModel(), ptg, cluster)
    alloc = np.array(
        [draw(st.integers(min_value=1, max_value=P)) for _ in range(n)],
        dtype=np.int64,
    )
    return ptg, table, map_allocations(ptg, table, alloc), draw(
        st.integers(min_value=0, max_value=n - 1)
    )


def _violation(table, schedule) -> str:
    """The ``kind`` the verifier rejects ``schedule`` with."""
    with pytest.raises(VerificationError) as info:
        ScheduleVerifier(schedule.ptg, table).verify(schedule)
    return info.value.kind


def _rebuild(schedule, start=None, finish=None, proc_sets=None):
    return Schedule(
        schedule.ptg,
        schedule.cluster,
        schedule.start if start is None else start,
        schedule.finish if finish is None else finish,
        schedule.proc_sets if proc_sets is None else proc_sets,
    )


@given(valid_schedules())
@settings(max_examples=40, deadline=None)
def test_uncorrupted_schedule_passes_both_checkers(case):
    ptg, table, schedule, _ = case
    ScheduleVerifier(ptg, table).verify(schedule)
    simulate(schedule, table)
    simulate(schedule)


@given(valid_schedules(), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_shifting_a_task_earlier_is_caught(case, fraction):
    """Pulling one non-source task earlier must violate precedence or
    processor exclusivity somewhere."""
    ptg, table, schedule, victim = case
    assume(ptg.predecessors(victim))  # needs a predecessor to violate
    assume(schedule.start[victim] > 0)
    start = schedule.start.copy()
    finish = schedule.finish.copy()
    duration = finish[victim] - start[victim]
    start[victim] *= fraction
    finish[victim] = start[victim] + duration
    # the shifted task now starts before at least one predecessor ends
    pred_end = max(
        schedule.finish[u] for u in ptg.predecessors(victim)
    )
    assume(start[victim] < pred_end - 1e-9)
    corrupted = _rebuild(schedule, start=start, finish=finish)
    assert _violation(table, corrupted) == "precedence"
    with pytest.raises(SimulationError):
        simulate(corrupted)


@given(valid_schedules())
@settings(max_examples=40, deadline=None)
def test_stealing_a_busy_processor_is_caught(case):
    """Reassigning a task onto a processor that is busy at its start
    time must be rejected."""
    ptg, table, schedule, victim = case
    # find another task overlapping the victim in time
    overlapping = None
    for v in range(ptg.num_tasks):
        if v == victim:
            continue
        if (
            schedule.start[v] < schedule.finish[victim] - 1e-9
            and schedule.finish[v] > schedule.start[victim] + 1e-9
        ):
            overlapping = v
            break
    assume(overlapping is not None)
    stolen = int(schedule.proc_sets[overlapping][0])
    assume(stolen not in set(int(p) for p in schedule.proc_sets[victim]))
    proc_sets = [ps.copy() for ps in schedule.proc_sets]
    proc_sets[victim] = np.concatenate(
        [proc_sets[victim][:-1], np.array([stolen])]
    )
    # keep the set duplicate-free
    assume(np.unique(proc_sets[victim]).size == proc_sets[victim].size)
    corrupted = _rebuild(schedule, proc_sets=proc_sets)
    assert _violation(table, corrupted) == "overlap"
    with pytest.raises(SimulationError):
        simulate(corrupted)


@given(valid_schedules(), st.floats(min_value=1.5, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_wrong_duration_is_caught(case, stretch):
    """A task whose recorded duration disagrees with the time table is
    rejected when checking against the table."""
    ptg, table, schedule, victim = case
    finish = schedule.finish.copy()
    finish[victim] = schedule.start[victim] + stretch * (
        schedule.finish[victim] - schedule.start[victim]
    )
    corrupted = _rebuild(schedule, finish=finish)
    assert _violation(table, corrupted) == "wrong-duration"
    with pytest.raises(SimulationError):
        simulate(corrupted, table)


@given(
    valid_schedules(),
    st.sampled_from(["start", "finish"]),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
@settings(max_examples=40, deadline=None)
def test_non_finite_placement_is_caught(case, field, value):
    """A NaN or infinite start or finish is rejected by the verifier
    (``non-finite``) and by the simulator, with or without a table."""
    ptg, table, schedule, victim = case
    times = getattr(schedule, field).copy()
    times[victim] = value
    corrupted = _rebuild(schedule, **{field: times})
    assert _violation(table, corrupted) == "non-finite"
    for check_table in (None, table):
        with pytest.raises(SimulationError) as info:
            simulate(corrupted, check_table)
        assert info.value.task == victim
