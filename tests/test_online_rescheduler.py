"""The reaction-policy ladder and the frontier rescheduler.

The contract under test: rung selection is a deterministic function of
the remaining evaluation budget (never wall-clock); every rung produces
a feasible frontier plan respecting release times, processor
availability and the alive set; and no rung ever returns a plan worse
than the incumbent it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AllocationError, ConfigurationError
from repro.online import REACTION_RUNGS, ReactionPolicy, Rescheduler
from repro.platform import grelon
from repro.timemodels import SyntheticModel, TimeTable
from repro.workloads import generate_fft

PTG = generate_fft(8, rng=777)
CLUSTER = grelon()


@pytest.fixture(scope="module")
def table() -> TimeTable:
    return TimeTable.build(SyntheticModel(), PTG, CLUSTER)


def _full_frontier(table):
    """Every task still pending, all processors alive and idle."""
    V = PTG.num_tasks
    P = CLUSTER.num_processors
    return dict(
        now=0.0,
        frontier=np.arange(V, dtype=np.int64),
        release=np.zeros(V),
        allocation=np.ones(V, dtype=np.int64),
        alive=np.arange(P, dtype=np.int64),
        avail=np.zeros(P),
    )


# ----------------------------------------------------------------------
# policy / rung arithmetic


def test_policy_defaults_are_valid():
    policy = ReactionPolicy()
    assert policy.emts_cost() > policy.repair_cost() > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(budget_evaluations=-1),
        dict(emts_mu=0),
        dict(emts_lam=0),
        dict(emts_generations=0),
        dict(heuristics=("nope",)),
        dict(repair_heuristic="nope"),
        dict(straggler_threshold=1.0),
    ],
)
def test_invalid_policies_raise(kwargs):
    with pytest.raises(ConfigurationError):
        ReactionPolicy(**kwargs)


def test_rung_selection_degrades_with_budget():
    policy = ReactionPolicy()
    assert policy.rung_for(policy.emts_cost()) == "emts"
    assert policy.rung_for(policy.emts_cost() - 1) == "repair"
    assert policy.rung_for(policy.repair_cost()) == "repair"
    assert policy.rung_for(policy.repair_cost() - 1) == "greedy"
    assert policy.rung_for(0) == "greedy"


def test_rungs_are_the_documented_ladder():
    assert REACTION_RUNGS == ("emts", "repair", "greedy")


# ----------------------------------------------------------------------
# the rescheduler


def test_empty_frontier_rejected(table):
    rs = Rescheduler(PTG, table)
    state = _full_frontier(table)
    state["frontier"] = np.empty(0, dtype=np.int64)
    state["release"] = np.empty(0)
    state["allocation"] = np.empty(0, dtype=np.int64)
    with pytest.raises(ConfigurationError, match="empty frontier"):
        rs.reschedule(**state, remaining_budget=100)


def test_no_alive_processors_rejected(table):
    rs = Rescheduler(PTG, table)
    state = _full_frontier(table)
    state["alive"] = np.empty(0, dtype=np.int64)
    state["avail"] = np.empty(0)
    with pytest.raises(ConfigurationError, match="alive"):
        rs.reschedule(**state, remaining_budget=100)


def test_exhausted_budget_falls_to_greedy(table):
    rs = Rescheduler(PTG, table)
    result = rs.reschedule(**_full_frontier(table), remaining_budget=0)
    assert result.rung == "greedy"
    assert result.evaluations == 1
    assert np.isfinite(result.completion)


def test_each_rung_never_worse_than_incumbent(table):
    """Monotonicity: repair and emts plans beat the greedy patch."""
    state = _full_frontier(table)
    policy = ReactionPolicy()
    greedy = Rescheduler(PTG, table, policy, rng=1).reschedule(
        **state, remaining_budget=0
    )
    repair = Rescheduler(PTG, table, policy, rng=1).reschedule(
        **state, remaining_budget=policy.emts_cost() - 1
    )
    emts = Rescheduler(PTG, table, policy, rng=1).reschedule(
        **state, remaining_budget=policy.budget_evaluations
    )
    assert repair.rung == "repair"
    assert emts.rung == "emts"
    assert repair.completion <= greedy.completion + 1e-9
    assert emts.completion <= greedy.completion + 1e-9
    assert emts.evaluations <= policy.emts_cost()
    assert repair.evaluations == policy.repair_cost()


def test_plan_is_feasible(table):
    state = _full_frontier(table)
    result = Rescheduler(PTG, table, rng=3).reschedule(
        **state, remaining_budget=ReactionPolicy().budget_evaluations
    )
    V = PTG.num_tasks
    assert result.frontier.size == V
    assert np.all(result.finish >= result.start)
    assert result.completion == pytest.approx(result.finish.max())
    alive = set(state["alive"].tolist())
    for i, procs in enumerate(result.proc_sets):
        assert len(procs) == result.allocation[i]
        assert set(procs.tolist()) <= alive
    # precedence within the frontier plan
    pos = {int(v): i for i, v in enumerate(result.frontier)}
    for i, v in enumerate(result.frontier):
        for u in PTG.predecessors(int(v)):
            if u in pos:
                assert result.start[i] >= result.finish[pos[u]] - 1e-9


def test_plan_respects_release_and_availability(table):
    """Dead processors are never used; release/avail bound every start."""
    V = PTG.num_tasks
    P = CLUSTER.num_processors
    alive = np.arange(3, P, dtype=np.int64)  # procs 0-2 are dead
    avail = np.full(alive.size, 5.0)
    avail[0] = 12.5  # first survivor busy until 12.5
    release = np.full(V, 7.0)
    result = Rescheduler(PTG, table, rng=4).reschedule(
        now=7.0,
        frontier=np.arange(V, dtype=np.int64),
        release=release,
        allocation=np.ones(V, dtype=np.int64),
        alive=alive,
        avail=avail,
        remaining_budget=0,
    )
    assert np.all(result.start >= 7.0 - 1e-9)
    used = set()
    for procs in result.proc_sets:
        used.update(procs.tolist())
    assert used <= set(alive.tolist())
    # anything placed on the busy survivor starts no earlier than 12.5
    for i, procs in enumerate(result.proc_sets):
        if int(alive[0]) in procs.tolist():
            assert result.start[i] >= 12.5 - 1e-9


def test_same_seed_reschedules_are_identical(table):
    state = _full_frontier(table)
    budget = ReactionPolicy().budget_evaluations
    a = Rescheduler(PTG, table, rng=9).reschedule(
        **state, remaining_budget=budget
    )
    b = Rescheduler(PTG, table, rng=9).reschedule(
        **state, remaining_budget=budget
    )
    assert a.rung == b.rung
    assert a.evaluations == b.evaluations
    assert a.completion == b.completion
    assert np.array_equal(a.allocation, b.allocation)
    assert np.array_equal(a.start, b.start)


def test_partial_frontier_subproblem(table):
    """Rescheduling a strict subset only replans those tasks."""
    V = PTG.num_tasks
    frontier = np.arange(V // 2, V, dtype=np.int64)
    release = np.full(frontier.size, 2.0)
    result = Rescheduler(PTG, table, rng=5).reschedule(
        now=2.0,
        frontier=frontier,
        release=release,
        allocation=np.full(frontier.size, 2, dtype=np.int64),
        alive=np.arange(CLUSTER.num_processors, dtype=np.int64),
        avail=np.zeros(CLUSTER.num_processors),
        remaining_budget=0,
    )
    assert np.array_equal(result.frontier, frontier)
    assert result.start.size == frontier.size
    assert np.all(result.start >= 2.0 - 1e-9)


def test_frontier_allocation_is_validated_not_clipped(table):
    """The frontier mapper rejects an allocation wider than the alive
    set; only the incoming incumbent (the old plan, which may use more
    processors than survive a crash) is clipped, by ``reschedule``."""
    from repro.online.rescheduler import _FrontierProblem

    V = PTG.num_tasks
    alive = np.arange(4, dtype=np.int64)
    problem = _FrontierProblem(
        PTG,
        table,
        np.arange(V, dtype=np.int64),
        np.zeros(V),
        alive,
        np.zeros(alive.size),
    )
    alloc = np.ones(V, dtype=np.int64)
    alloc[0] = alive.size + 1
    with pytest.raises(AllocationError):
        problem.evaluate(alloc)
    with pytest.raises(AllocationError):
        problem.evaluate_batch(alloc[np.newaxis])
    result = Rescheduler(PTG, table, rng=6).reschedule(
        now=0.0,
        frontier=np.arange(V, dtype=np.int64),
        release=np.zeros(V),
        allocation=np.full(V, CLUSTER.num_processors, dtype=np.int64),
        alive=alive,
        avail=np.zeros(alive.size),
        remaining_budget=0,
    )
    assert np.array_equal(result.allocation, np.full(V, alive.size))
