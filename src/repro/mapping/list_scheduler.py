"""Bottom-level list scheduling — the mapping step of every two-step
algorithm in this library (paper Section III-A, "Mapping function").

Given a PTG, a precomputed :class:`~repro.timemodels.TimeTable` and an
allocation vector ``s``, the mapper:

1. computes every task's execution time ``t(v) = T(v, s(v))`` and bottom
   level ``bl(v)`` under those times;
2. repeatedly takes the *ready* task with the largest bottom level and
   places it at the earliest instant at which (a) all its predecessors
   have finished and (b) ``s(v)`` processors are simultaneously free —
   choosing the first-fit processor set by index.

The same routine doubles as the EA's fitness function; :func:`makespan_of`
is the fast path that skips building processor sets.

Complexity: ``O(E + V log V + V P)`` as cited by the paper for CPA's
mapping step (heap operations dominate the graph part; the ``V P`` term
comes from the free-time scans).

The optional *rejection strategy* sketched in the paper's conclusions is
implemented via ``abort_above``: while mapping, ``start(v) + bl(v)`` is a
lower bound on the final makespan, so construction stops early once the
bound reaches a known incumbent — the schedule cannot beat it
(:func:`~repro.mapping.kernel.abort_limits` keeps the test sound under
rounding).

Two engines implement the identical algorithm.  The *reference* engine
(:func:`_run` below, the only Python list-scheduling loop) works
directly on the PTG/TimeTable objects and supports every priority
rule; the *compiled* engine (:class:`~repro.mapping.kernel.ScheduleKernel`)
flattens the problem once per (PTG, table) pair and runs one native
loop, many times faster per call.  Both are bit-identical on the
paper's bottom-level rule, which is why :func:`makespan_of` and
:func:`map_allocations` route through the kernel automatically; pass
``compiled=False`` to force the reference path (the property-based
suite uses it as the oracle).  Without the native library the kernel
itself runs :func:`_run`.

:func:`_run` also maps every online frontier
(:mod:`repro.online.rescheduler`): two optional inputs, per-task
*release* times and per-processor *availability*, both zero when
absent, bound each task's data-ready time and each processor's first
free instant.  Offline mapping is the case where both are zero.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import AllocationError
from ..graph import PTG, bottom_levels, csr_adjacency
from ..graph.analysis import bottom_level_list
from ..timemodels import TimeTable
from .kernel import ScheduleKernel, abort_limits, check_allocation, kernel_for
from .processor_state import ProcessorState
from .schedule import Schedule

__all__ = [
    "map_allocations",
    "makespan_of",
    "check_allocation",
    "makespan_lower_bound",
    "PRIORITIES",
]

#: Available ready-queue priority rules.  The paper's mapper uses
#: decreasing bottom level; the alternatives exist for the mapper
#: ablation (they answer: how much of the schedule quality comes from
#: the priority rule itself?).
PRIORITIES = ("bottom-level", "topological", "heaviest-first")


def makespan_lower_bound(
    ptg: PTG, table: TimeTable, alloc: np.ndarray
) -> float:
    """A certified lower bound on the list-schedule makespan.

    The maximum of the two classic bounds: the critical-path length
    under the chosen allocations, and the work-area bound
    ``sum_v s(v) T(v, s(v)) / P`` (the schedule cannot beat perfect
    packing).  Used by tests and by quality reporting.
    """
    alloc = check_allocation(alloc, ptg, table.num_processors)
    times = table.times_for(alloc)
    cp = float(bottom_levels(ptg, times).max())
    area = float(np.sum(alloc * times)) / table.num_processors
    return max(cp, area)


def _select_kernel(
    ptg: PTG,
    table: TimeTable,
    priority: str,
    compiled: bool | None,
) -> ScheduleKernel | None:
    """Pick the compiled kernel when it applies, else ``None``.

    The kernel implements the paper's bottom-level rule only, and is
    keyed to the table's own PTG; ``compiled=None`` auto-selects it
    whenever both hold, ``compiled=True`` insists (raising otherwise)
    and ``compiled=False`` forces the reference engine.
    """
    if compiled is False:
        return None
    if priority != "bottom-level":
        if compiled:
            raise AllocationError(
                "the compiled kernel only implements the "
                f"'bottom-level' priority, not {priority!r}"
            )
        return None
    if ptg is not table.ptg and ptg != table.ptg:
        if compiled:
            raise AllocationError(
                f"time table was built for PTG {table.ptg.name!r}, "
                f"not {ptg.name!r}"
            )
        return None
    return kernel_for(table)


def _priority_values(
    ptg: PTG, times: np.ndarray, priority: str
) -> np.ndarray:
    """Per-task priority (larger = scheduled earlier among ready) under
    a rule other than the bottom level, which :func:`_run` sweeps."""
    if priority == "topological":
        # index order: effectively FIFO among ready tasks
        return -np.arange(ptg.num_tasks, dtype=np.float64)
    if priority == "heaviest-first":
        return times.astype(np.float64)
    raise AllocationError(
        f"unknown priority {priority!r}; known: {PRIORITIES}"
    )


def _run(
    ptg: PTG,
    table: TimeTable,
    alloc: np.ndarray,
    build_schedule: bool,
    abort_above: float | None,
    priority: str = "bottom-level",
    release: np.ndarray | None = None,
    avail: np.ndarray | None = None,
):
    """The reference mapper: the oracle, the non-default priority rules,
    the kernel's fallback when no native library is bound, and the
    mapper of every online frontier.

    ``release`` (per task) and ``avail`` (per processor) are the
    earliest data-ready and free times, zero when absent: a task starts
    no earlier than its release, a processor serves no task before its
    availability.  Returns ``(makespan, start, finish, proc_sets)``;
    ``proc_sets`` only when ``build_schedule``, and ``(inf, None, None,
    None)`` once ``abort_above`` rejects the allocation.
    """
    P = table.num_processors
    alloc = check_allocation(alloc, ptg, P)
    times = table.times_for(alloc)
    # per-task scalars as Python lists: the loop reads them one at a
    # time, and a list index is cheaper than a numpy scalar read.  The
    # times come from the table, which checked them at construction
    # (finite, > 0) and keeps them read-only, so the bottom levels are
    # swept straight from the list
    s_of = alloc.tolist()
    t_of = times.tolist()
    bl_of = (
        bottom_level_list(ptg, t_of)
        if priority == "bottom-level" or abort_above is not None
        else None
    )
    prio_of = (
        bl_of
        if priority == "bottom-level"
        else _priority_values(ptg, times, priority).tolist()
    )

    V = ptg.num_tasks
    sink_limit, inner_limit = abort_limits(abort_above, V)
    n_waiting = csr_adjacency(ptg).in_degree.tolist()
    data_ready = (
        [0.0] * V
        if release is None
        else np.asarray(release, dtype=np.float64).tolist()
    )
    start = [0.0] * V
    finish = [0.0] * V
    proc_sets: list[np.ndarray] | None = (
        [np.empty(0, dtype=np.int64)] * V if build_schedule else None
    )

    state = ProcessorState(P)
    if avail is not None:
        state.free[:] = avail
    successors_of = ptg.successors
    # heap of (-priority, index): max first, index breaks ties
    heap: list[tuple[float, int]] = [
        (-prio_of[v], v) for v in range(V) if n_waiting[v] == 0
    ]
    heapq.heapify(heap)

    makespan = 0.0
    scheduled = 0
    while heap:
        _, v = heapq.heappop(heap)
        s = s_of[v]
        t_start = state.earliest_start(s, data_ready[v])
        t_finish = t_start + t_of[v]
        successors = successors_of(v)
        if abort_above is not None and t_start + bl_of[v] >= (
            inner_limit if successors else sink_limit
        ):
            # lower bound on the final makespan already reaches the
            # incumbent: reject this individual without finishing the map
            return np.inf, None, None, None
        if build_schedule:
            proc_sets[v] = state.assign(s, t_start, t_finish)
        else:
            # identical first-fit rule, without keeping the indices
            state.assign(s, t_start, t_finish)
        start[v] = t_start
        finish[v] = t_finish
        if t_finish > makespan:
            makespan = t_finish
        scheduled += 1
        for w in successors:
            if t_finish > data_ready[w]:
                data_ready[w] = t_finish
            n_waiting[w] -= 1
            if n_waiting[w] == 0:
                heapq.heappush(heap, (-prio_of[w], w))

    assert scheduled == V, "DAG invariants guarantee full coverage"
    return (
        makespan,
        np.array(start, dtype=np.float64),
        np.array(finish, dtype=np.float64),
        proc_sets,
    )


def makespan_of(
    ptg: PTG,
    table: TimeTable,
    alloc: np.ndarray,
    abort_above: float | None = None,
    priority: str = "bottom-level",
    compiled: bool | None = None,
) -> float:
    """Makespan of the list schedule for ``alloc`` (fitness fast path).

    Returns ``inf`` when ``abort_above`` is given and the partial schedule
    provably cannot beat it.  ``priority`` selects the ready-queue rule
    (see :data:`PRIORITIES`); the paper's mapper uses the default.
    ``compiled`` selects the engine: ``None`` (default) uses the
    compiled :class:`~repro.mapping.kernel.ScheduleKernel` whenever it
    applies — results are bit-identical either way.
    """
    kernel = _select_kernel(ptg, table, priority, compiled)
    if kernel is not None:
        return kernel.makespan(alloc, abort_above)
    makespan, _, _, _ = _run(
        ptg,
        table,
        alloc,
        build_schedule=False,
        abort_above=abort_above,
        priority=priority,
    )
    return makespan


def map_allocations(
    ptg: PTG,
    table: TimeTable,
    alloc: np.ndarray,
    priority: str = "bottom-level",
    compiled: bool | None = None,
) -> Schedule:
    """Full mapping: allocation vector → concrete :class:`Schedule`.

    On the default priority rule the compiled kernel builds the
    schedule — the same loop that evaluated the allocation's fitness,
    also recording start times and processor sets.
    """
    kernel = _select_kernel(ptg, table, priority, compiled)
    if kernel is not None:
        makespan, start, finish, proc_sets = kernel.build_schedule(alloc)
    else:
        makespan, start, finish, proc_sets = _run(
            ptg,
            table,
            alloc,
            build_schedule=True,
            abort_above=None,
            priority=priority,
        )
    assert proc_sets is not None
    schedule = Schedule(ptg, table.cluster, start, finish, proc_sets)
    # the two paths share one engine, so this always holds; keep the check
    # cheap but present (it guards the EA's fitness consistency)
    assert abs(schedule.makespan - makespan) < 1e-9
    return schedule
