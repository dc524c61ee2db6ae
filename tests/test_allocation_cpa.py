"""Unit tests for CPA and the CPA-family machinery.

The second half pins the native growth loop (``cpa_allocate`` in
:mod:`repro.mapping._cscheduler`) against the Python loop of
:mod:`repro.allocation.cpa` with exact comparisons: every CPA-family
allocator, three time models, regular and random graphs on both paper
platforms, and the degenerate shapes.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.allocation import (
    BicpaAllocator,
    CpaAllocator,
    HcpaAllocator,
    Mcpa2Allocator,
    McpaAllocator,
    cpa_quantities,
    critical_path_mask,
)
from repro.allocation import cpa as cpa_mod
from repro.allocation.bicpa import _VirtualCpa
from repro.core import seed_population
from repro.core.mutation import AllocationMutation
from repro.exceptions import AllocationError
from repro.graph import PTG, Task, bottom_levels, chain, top_levels
from repro.mapping import ScheduleKernel, _cscheduler, makespan_of
from repro.online import ReactionPolicy, Rescheduler
from repro.platform import Cluster, chti, grelon
from repro.timemodels import (
    AmdahlModel,
    DowneyModel,
    SyntheticModel,
    TimeTable,
)
from repro.workloads import (
    DaggenParams,
    generate_daggen,
    generate_fft,
    generate_strassen,
)


def table_for(ptg, P=8, model=None, speed=1.0):
    cluster = Cluster("c", num_processors=P, speed_gflops=speed)
    return TimeTable.build(model or AmdahlModel(), ptg, cluster)


class TestCpaQuantities:
    def test_chain_all_ones(self):
        ptg = chain([1e9, 2e9, 3e9])
        table = table_for(ptg, P=4)
        alloc = np.ones(3, dtype=np.int64)
        t_cp, t_a = cpa_quantities(ptg, table, alloc)
        assert t_cp == pytest.approx(6.0)
        assert t_a == pytest.approx(6.0 / 4)


class TestCriticalPathMask:
    def test_diamond(self, diamond_ptg):
        # times: a=1, b=2, c=4, d=1 -> CP is a-c-d
        t = np.array([1.0, 2.0, 4.0, 1.0])
        mask, t_cp = critical_path_mask(diamond_ptg, t)
        assert t_cp == pytest.approx(6.0)
        assert mask.tolist() == [True, False, True, True]

    def test_parallel_equal_branches_all_critical(self, fork_join_ptg):
        t = np.ones(8)
        mask, _ = critical_path_mask(fork_join_ptg, t)
        assert mask.all()  # every branch ties for criticality


class TestCpaMonotone:
    def test_allocations_grow_beyond_one(self):
        ptg = chain([8e9, 8e9])
        table = table_for(ptg, P=8)
        alloc = CpaAllocator().allocate(ptg, table)
        assert alloc.max() > 1

    def test_allocation_in_bounds(self, irregular_ptg):
        table = table_for(irregular_ptg, P=8)
        alloc = CpaAllocator().allocate(irregular_ptg, table)
        assert alloc.min() >= 1
        assert alloc.max() <= 8

    def test_stops_when_tcp_below_ta(self, fork_join_ptg):
        table = table_for(fork_join_ptg, P=4)
        alloc = CpaAllocator().allocate(fork_join_ptg, table)
        from repro.allocation import cpa_quantities

        t_cp, t_a = cpa_quantities(fork_join_ptg, table, alloc)
        # after termination either the balance holds or nothing on the CP
        # could still improve; for this perfectly-scalable monotone case
        # the balance is reachable
        assert t_cp <= t_a * (1 + 1e-9) or alloc.max() == 4

    def test_improves_over_serial(self, fft8_ptg, grelon_cluster):
        table = TimeTable.build(
            AmdahlModel(), fft8_ptg, grelon_cluster
        )
        serial_ms = makespan_of(
            fft8_ptg, table, np.ones(39, dtype=np.int64)
        )
        cpa_ms = makespan_of(
            fft8_ptg, table, CpaAllocator().allocate(fft8_ptg, table)
        )
        assert cpa_ms < serial_ms

    def test_single_task_gets_everything_or_balance(self):
        # one perfectly parallel task: CPA grows it until T_CP <= T_A;
        # with alpha=0, T_A is constant = T(1)/P, so it grows to P
        ptg = PTG([Task("t", work=8e9, alpha=0.0)], [])
        table = table_for(ptg, P=8)
        alloc = CpaAllocator().allocate(ptg, table)
        assert alloc[0] == 8


class TestCpaNonMonotoneGuard:
    def test_allocations_stall_under_model2(self, fft8_ptg):
        """The paper's observation: under Model 2 allocations stop at
        4-8 processors."""
        table = table_for(fft8_ptg, P=120, model=SyntheticModel())
        alloc = CpaAllocator().allocate(fft8_ptg, table)
        assert alloc.max() <= 8

    def test_terminates_under_model2(self, irregular_ptg):
        table = table_for(
            irregular_ptg, P=64, model=SyntheticModel()
        )
        alloc = CpaAllocator().allocate(irregular_ptg, table)
        assert alloc.shape == (irregular_ptg.num_tasks,)

    def test_never_grows_at_negative_gain(self):
        ptg = PTG([Task("t", work=6e9, alpha=0.3)], [])
        table = table_for(ptg, P=3, model=SyntheticModel())
        alloc = CpaAllocator().allocate(ptg, table)
        # T(3) > T(2) at alpha=0.3: the guard must stop at 2
        assert alloc[0] == 2

    def test_allow_negative_gain_flag(self):
        ptg = PTG([Task("t", work=6e9, alpha=0.3)], [])
        table = table_for(ptg, P=3, model=SyntheticModel())
        loose = CpaAllocator(allow_negative_gain=True)
        alloc = loose.allocate(ptg, table)
        # without the guard the loop pushes past the inversion (and is
        # stopped by T_CP <= T_A or the cap)
        assert alloc[0] >= 2

    def test_max_iterations_cap(self, fft8_ptg, grelon_cluster):
        table = TimeTable.build(
            AmdahlModel(), fft8_ptg, grelon_cluster
        )
        capped = CpaAllocator(max_iterations=3).allocate(
            fft8_ptg, table
        )
        # at most 3 growth steps from all-ones
        assert (capped - 1).sum() <= 3


# ----------------------------------------------------------------------
# the native loop against the Python oracle, in one process

MODELS = (AmdahlModel, SyntheticModel, DowneyModel)


PARITY_GRAPHS = {
    "fft": generate_fft(8, rng=21),
    "strassen": generate_strassen(rng=22),
    "daggen-layered": generate_daggen(
        DaggenParams(
            num_tasks=40, width=0.5, regularity=0.9, density=0.3, jump=1
        ),
        rng=23,
    ),
    "daggen-irregular": generate_daggen(
        DaggenParams(
            num_tasks=50, width=0.4, regularity=0.1, density=0.6, jump=3
        ),
        rng=24,
    ),
}


def _native_library():
    ffi, lib = _cscheduler.load()
    if lib is None:
        pytest.skip("native library unavailable on this host")
    return ffi, lib


def _python_loop(loop, ffi, lib):
    return cpa_mod._grow_python(loop)


def assert_loops_agree(allocator, ptg, table):
    """C and Python produce the same allocation in the same steps."""
    ffi, lib = _native_library()
    loop = allocator._loop(ptg, table)
    c_alloc, c_steps = cpa_mod._grow_native(loop, ffi, lib)
    py_alloc, py_steps = cpa_mod._grow_python(loop)
    assert c_alloc.dtype == py_alloc.dtype == np.int64
    assert np.array_equal(c_alloc, py_alloc)
    assert c_steps == py_steps
    return c_alloc, c_steps


def assert_allocators_agree(monkeypatch, allocator, ptg, table):
    """The whole ``allocate`` agrees with the Python loop swapped in."""
    _native_library()
    native = allocator.allocate(ptg, table)
    with monkeypatch.context() as m:
        m.setattr(cpa_mod, "_grow_native", _python_loop)
        oracle = allocator.allocate(ptg, table)
    assert np.array_equal(native, oracle)


@pytest.mark.parametrize("platform", [chti, grelon])
@pytest.mark.parametrize("graph", sorted(PARITY_GRAPHS))
@pytest.mark.parametrize("model_cls", MODELS)
def test_native_loop_matches_python_oracle(model_cls, graph, platform):
    ptg = PARITY_GRAPHS[graph]
    cluster = platform()
    table = TimeTable.build(model_cls(), ptg, cluster)
    V = ptg.num_tasks
    family = [
        CpaAllocator(),
        McpaAllocator(),
        Mcpa2Allocator(),
        CpaAllocator(allow_negative_gain=True, max_iterations=2 * V),
    ]
    family += [
        _VirtualCpa(k)
        for k in BicpaAllocator(step=7)._virtual_sizes(
            cluster.num_processors
        )
    ]
    grew = 0
    for allocator in family:
        _, steps = assert_loops_agree(allocator, ptg, table)
        grew += steps
    assert grew > 0  # the sweep exercises real growth, not only stops


@pytest.mark.parametrize("model_cls", MODELS)
def test_whole_allocators_match_python_oracle(monkeypatch, model_cls):
    """HCPA (default and non-default reference speed) and BiCPA run
    the same loop through their own translation and selection."""
    ptg = PARITY_GRAPHS["fft"]
    cluster = chti()
    table = TimeTable.build(model_cls(), ptg, cluster)
    for allocator in (
        HcpaAllocator(),
        HcpaAllocator(
            reference_speed_gflops=cluster.speed_gflops * 2,
            model=model_cls(),
        ),
        BicpaAllocator(),
        BicpaAllocator(objective="area"),
    ):
        assert_allocators_agree(monkeypatch, allocator, ptg, table)


EDGE_GRAPHS = {
    "single": PTG([Task("only", work=8e9, alpha=0.1)], [], name="single"),
    "edgeless": PTG(
        [Task(f"t{i}", work=(i + 1) * 1e9, alpha=0.05) for i in range(6)],
        [],
        name="edgeless",
    ),
    "chain": chain([3e9, 1e9, 4e9, 1e9, 5e9], name="chain5"),
}


@pytest.mark.parametrize("P", [1, 2, 8])
@pytest.mark.parametrize("graph", sorted(EDGE_GRAPHS))
@pytest.mark.parametrize("model_cls", MODELS)
def test_edge_cases_match_python_oracle(model_cls, graph, P):
    ptg = EDGE_GRAPHS[graph]
    table = table_for(ptg, P=P, model=model_cls())
    for allocator in (
        CpaAllocator(),
        McpaAllocator(),
        Mcpa2Allocator(),
        CpaAllocator(allow_negative_gain=True, max_iterations=5),
        CpaAllocator(max_iterations=0),
        _VirtualCpa(max(1, P // 2)),
    ):
        alloc, steps = assert_loops_agree(allocator, ptg, table)
        assert alloc.min() >= 1 and alloc.max() <= P
        if P == 1 or allocator.max_iterations == 0:
            assert steps == 0 and np.all(alloc == 1)


def test_native_build_keeps_multiply_and_add_separate():
    """An FMA-targeting toolchain must not fuse the area update or the
    critical-path threshold into one rounding."""
    for openmp in (True, False):
        assert "-ffp-contract=off" in _cscheduler._flags(openmp)


def test_concurrent_allocations_are_independent():
    """Per-call buffers: threads allocating at once (more threads than
    cores, frequent switches) get exactly the sequential allocations."""
    _native_library()
    problems = [
        (ptg, TimeTable.build(model_cls(), ptg, grelon()))
        for ptg in (PARITY_GRAPHS["fft"], PARITY_GRAPHS["daggen-irregular"])
        for model_cls in (AmdahlModel, SyntheticModel)
    ]
    allocators = (CpaAllocator(), McpaAllocator(), Mcpa2Allocator())
    jobs = [(a, ptg, table) for a in allocators for ptg, table in problems]
    expected = [a.allocate(ptg, table) for a, ptg, table in jobs]
    threads = 4
    start = threading.Barrier(threads)

    shifts = [k * len(jobs) // threads for k in range(threads)]

    def worker(shift):
        start.wait(timeout=30)
        order = (jobs[shift:] + jobs[:shift]) * 3
        return [a.allocate(ptg, table) for a, ptg, table in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, shift) for shift in shifts]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, shift in zip(results, shifts):
        want = (expected[shift:] + expected[:shift]) * 3
        assert len(got) == len(want)
        for alloc, ref in zip(got, want):
            assert np.array_equal(alloc, ref)


@pytest.mark.parametrize(
    "allocator",
    [CpaAllocator(), McpaAllocator(), Mcpa2Allocator(), _VirtualCpa(3)],
    ids=["cpa", "mcpa", "mcpa2", "virtual"],
)
def test_table_shape_mismatch_raises_before_any_loop(
    monkeypatch, allocator, fft8_ptg
):
    """A table built for another PTG is rejected with a typed error
    before either engine runs."""

    def forbidden(*args):
        raise AssertionError("the growth loop must not run")

    monkeypatch.setattr(cpa_mod, "_grow_native", forbidden)
    monkeypatch.setattr(cpa_mod, "_grow_python", forbidden)
    table = table_for(chain([1e9, 2e9, 3e9]), P=8)
    with pytest.raises(AllocationError, match="shape"):
        allocator.allocate(fft8_ptg, table)


@pytest.mark.parametrize("model_cls", MODELS)
def test_list_sweeps_match_graph_analysis(model_cls):
    """The critical-path mask agrees bitwise with the bottom and top
    levels of :mod:`repro.graph.analysis`, whose list sweeps the Python
    growth loop shares."""
    rng = np.random.default_rng(7)
    for ptg in (*PARITY_GRAPHS.values(), *EDGE_GRAPHS.values()):
        table = table_for(ptg, P=16, model=model_cls())
        for _ in range(4):
            alloc = rng.integers(1, 17, size=ptg.num_tasks)
            times = table.times_for(alloc)
            bl = bottom_levels(ptg, times)
            tl = top_levels(ptg, times)
            mask, t_cp = critical_path_mask(ptg, times)
            assert t_cp == float(bl.max())
            assert np.array_equal(
                mask, (tl + bl) >= t_cp * (1.0 - 1e-12) - 1e-12
            )


def test_cpa_family_builds_no_schedule_kernel(monkeypatch):
    """Seeding, a repair reschedule and an EMTS-rung reschedule run the
    CPA family without constructing a ScheduleKernel."""
    built = []
    original = ScheduleKernel.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ScheduleKernel, "__init__", counting)
    ptg = generate_fft(8, rng=31)
    table = TimeTable.build(SyntheticModel(), ptg, grelon())
    rng = np.random.default_rng(3)
    individuals, seeds = seed_population(
        ptg,
        table,
        ("mcpa", "hcpa", "mcpa2", "cpa", "delta-critical"),
        10,
        AllocationMutation(table.num_processors),
        rng,
    )
    assert len(individuals) == 10 and "mcpa" in seeds

    policy = ReactionPolicy()
    V, P = ptg.num_tasks, table.num_processors
    state = dict(
        now=0.0,
        frontier=np.arange(V, dtype=np.int64),
        release=np.zeros(V),
        allocation=np.ones(V, dtype=np.int64),
        alive=np.arange(P - 3, dtype=np.int64),
        avail=np.zeros(P - 3),
    )
    for budget, rung in (
        (policy.emts_cost() - 1, "repair"),
        (policy.budget_evaluations, "emts"),
    ):
        result = Rescheduler(ptg, table, policy, rng=1).reschedule(
            **state, remaining_budget=budget
        )
        assert result.rung == rung
    assert built == []
