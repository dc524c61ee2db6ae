"""Property-based tests (hypothesis) for the list scheduler and EMTS
components: every schedule produced from any feasible allocation vector
must satisfy the platform invariants, and the fast fitness path must
agree with the full mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clamp_allocations, mutation_count
from repro.graph import PTG, Task
from repro.mapping import makespan_of, map_allocations
from repro.platform import Cluster
from repro.simulator import simulate
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.verify import ScheduleVerifier


@st.composite
def scheduling_problems(draw):
    """A random DAG + platform + allocation vector."""
    n = draw(st.integers(min_value=1, max_value=10))
    tasks = [
        Task(
            f"t{i}",
            work=draw(st.floats(min_value=1e8, max_value=1e11)),
            alpha=draw(st.floats(min_value=0.0, max_value=0.5)),
        )
        for i in range(n)
    ]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    ptg = PTG(tasks, edges)
    P = draw(st.integers(min_value=1, max_value=12))
    cluster = Cluster("h", num_processors=P, speed_gflops=1.0)
    model = draw(st.sampled_from([AmdahlModel(), SyntheticModel()]))
    table = TimeTable.build(model, ptg, cluster)
    alloc = np.array(
        [
            draw(st.integers(min_value=1, max_value=P))
            for _ in range(n)
        ],
        dtype=np.int64,
    )
    return ptg, table, alloc


@given(scheduling_problems())
@settings(max_examples=80, deadline=None)
def test_schedule_satisfies_all_invariants(problem):
    ptg, table, alloc = problem
    schedule = map_allocations(ptg, table, alloc)
    ScheduleVerifier(ptg, table).verify(schedule)


@given(scheduling_problems())
@settings(max_examples=80, deadline=None)
def test_fast_path_agrees_with_full_mapping(problem):
    ptg, table, alloc = problem
    fast = makespan_of(ptg, table, alloc)
    full = map_allocations(ptg, table, alloc).makespan
    assert fast == pytest.approx(full)


@given(scheduling_problems())
@settings(max_examples=50, deadline=None)
def test_simulator_agrees_with_mapper(problem):
    ptg, table, alloc = problem
    schedule = map_allocations(ptg, table, alloc)
    result = simulate(schedule, table)
    assert result.makespan == pytest.approx(schedule.makespan)


@given(scheduling_problems())
@settings(max_examples=50, deadline=None)
def test_makespan_lower_bounds(problem):
    """Makespan >= critical path length and >= work-area bound, under
    every priority rule."""
    from repro.graph import critical_path_length
    from repro.mapping import PRIORITIES, makespan_lower_bound

    ptg, table, alloc = problem
    times = table.times_for(alloc)
    lb = makespan_lower_bound(ptg, table, alloc)
    for priority in PRIORITIES:
        ms = makespan_of(ptg, table, alloc, priority=priority)
        assert ms >= critical_path_length(ptg, times) - 1e-9
        area_bound = float(
            np.sum(alloc * times)
        ) / table.num_processors
        assert ms >= area_bound - 1e-9
        assert ms >= lb - 1e-9


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_mutation_count_always_valid(V, U, fm):
    for u in range(U + 1):
        m = mutation_count(V, u, U, fm)
        assert 1 <= m <= V


@given(
    st.lists(
        st.integers(min_value=-1000, max_value=1000),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=1, max_value=128),
)
@settings(max_examples=100, deadline=None)
def test_clamp_always_feasible(values, P):
    out = clamp_allocations(np.array(values), P)
    assert out.min() >= 1
    assert out.max() <= P


@given(scheduling_problems())
@settings(max_examples=30, deadline=None)
def test_rejection_bound_soundness(problem):
    """An aborted mapping (inf) implies the honest makespan really
    exceeds the bound; a completed mapping is unchanged by the bound."""
    ptg, table, alloc = problem
    honest = makespan_of(ptg, table, alloc)
    bound = honest * 0.8
    result = makespan_of(ptg, table, alloc, abort_above=bound)
    if np.isinf(result):
        assert honest >= bound - 1e-9
    else:
        assert result == pytest.approx(honest)


@st.composite
def frontier_problems(draw):
    """A random frontier sub-problem: a task subset with release times,
    an alive processor subset with availability times, an allocation
    and a rejection bound around the allocation's completion."""
    from repro.online.rescheduler import _FrontierProblem

    ptg, table, _ = draw(scheduling_problems())
    V, P = ptg.num_tasks, table.num_processors
    frontier = np.array(
        draw(
            st.lists(
                st.integers(0, V - 1), min_size=1, max_size=V, unique=True
            ).map(sorted)
        ),
        dtype=np.int64,
    )
    alive = np.array(
        draw(
            st.lists(
                st.integers(0, P - 1), min_size=1, max_size=P, unique=True
            ).map(sorted)
        ),
        dtype=np.int64,
    )
    times = st.floats(min_value=0.0, max_value=50.0)
    release = np.array([draw(times) for _ in frontier])
    avail = np.array([draw(times) for _ in alive])
    problem = _FrontierProblem(ptg, table, frontier, release, alive, avail)
    alloc = np.array(
        [draw(st.integers(1, alive.size)) for _ in frontier], dtype=np.int64
    )
    honest = problem.completion_of(alloc)
    bound = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.5).map(lambda f: f * honest),
            st.sampled_from(
                [
                    honest,
                    np.nextafter(honest, -np.inf),
                    np.nextafter(honest, np.inf),
                ]
            ),
        )
    )
    return problem, alloc, honest, float(bound)


@given(frontier_problems())
@settings(max_examples=200, deadline=None)
def test_frontier_rejection_bound_soundness(case):
    """The online frontier mapper's bound is sound: a bounded
    evaluation is ``inf`` only when the unbounded completion reaches
    the bound, and otherwise the unbounded completion, bit for bit."""
    problem, alloc, honest, bound = case
    (result,) = problem.evaluate_batch(alloc[np.newaxis], abort_above=bound)
    if np.isinf(result):
        assert honest >= bound
    else:
        assert result == honest
    assert problem.evaluate_batch(alloc[np.newaxis]) == [honest]


@given(frontier_problems())
@settings(max_examples=150, deadline=None)
def test_frontier_plan_respects_release_availability_and_exclusivity(case):
    """The build-mode frontier plan: every start at or after its task's
    release and its processors' availability, precedence inside the
    frontier, no two tasks on one processor at once (within the
    mapper's 1e-12), and a completion equal to the last finish and to
    the non-build completion."""
    problem, alloc, honest, _ = case
    completion, start, finish, proc_sets = problem.evaluate(alloc, build=True)
    assert np.all(start >= problem.release)
    for i, procs in enumerate(proc_sets):
        assert procs.size == alloc[i]
        assert np.all(problem.avail[procs] <= start[i] + 1e-12)
    for u, v in problem.ptg.edges:
        assert start[v] >= finish[u]
    busy: dict[int, list[tuple[float, float]]] = {}
    for i, procs in enumerate(proc_sets):
        for p in procs.tolist():
            busy.setdefault(p, []).append((start[i], finish[i]))
    for intervals in busy.values():
        intervals.sort()
        for (_, end), (begin, _) in zip(intervals, intervals[1:]):
            assert begin >= end - 1e-12
    assert completion == finish.max()
    assert completion == honest


@given(scheduling_problems())
@settings(max_examples=80, deadline=None)
def test_whole_graph_frontier_is_the_offline_schedule(problem):
    """With every task pending, every processor alive and nothing
    released or busy yet, the frontier plan is the offline schedule,
    bit for bit."""
    from repro.online.rescheduler import _FrontierProblem

    ptg, table, alloc = problem
    V, P = ptg.num_tasks, table.num_processors
    frontier = _FrontierProblem(
        ptg,
        table,
        np.arange(V, dtype=np.int64),
        np.zeros(V),
        np.arange(P, dtype=np.int64),
        np.zeros(P),
    )
    completion, start, finish, proc_sets = frontier.evaluate(alloc, build=True)
    schedule = map_allocations(ptg, table, alloc)
    assert completion == schedule.makespan
    assert np.array_equal(start, schedule.start)
    assert np.array_equal(finish, schedule.finish)
    for v in range(V):
        assert np.array_equal(proc_sets[v], schedule.proc_sets[v])
