"""Discrete-event execution of a schedule on the platform model.

The simulator replays a :class:`~repro.mapping.Schedule` event by event,
*independently* enforcing the platform semantics of paper Section IV:

* a processor executes one task at a time;
* a task starts only after every predecessor has finished;
* a task occupies exactly its assigned processors for exactly its
  predicted duration (durations come from the time table, not from the
  schedule, so a scheduler bug that records wrong finish times is
  caught).

It is the cross-check between the analytic list scheduler and "what would
actually happen" on the simulated cluster: every experiment's makespan is
validated through :func:`simulate` in the test suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..exceptions import SimulationError
from ..mapping import Schedule
from ..timemodels import TimeTable
from .events import TaskFinished, TaskStarted
from .trace import SimulationTrace

__all__ = ["simulate", "SimulationResult"]

_EPS = 1e-9


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    trace: SimulationTrace
    makespan: float

    @property
    def utilization(self) -> float:
        """Average processor utilization observed during the run."""
        return self.trace.utilization()


def simulate(
    schedule: Schedule,
    table: TimeTable | None = None,
) -> SimulationResult:
    """Execute ``schedule`` in simulated time.

    Parameters
    ----------
    schedule:
        The schedule to replay.
    table:
        Optional time table; when given, task durations are re-derived
        from it (``T(v, |procs(v)|)``) instead of trusting the schedule's
        recorded ``finish - start``, and any disagreement raises
        :class:`SimulationError`.

    Raises
    ------
    SimulationError
        On a NaN or infinite start or finish, and on any violation of
        precedence, exclusivity or duration consistency.
    """
    ptg = schedule.ptg
    P = schedule.cluster.num_processors
    V = ptg.num_tasks

    # a non-finite time has no place in the event order: reject it
    # before it is queued, whether or not a table is given
    finite = np.isfinite(schedule.start) & np.isfinite(schedule.finish)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise SimulationError(
            f"task {ptg.task(bad).name!r} has a non-finite placement: "
            f"start={schedule.start[bad]!r}, "
            f"finish={schedule.finish[bad]!r}",
            task=bad,
            processors=tuple(int(p) for p in schedule.proc_sets[bad]),
        )
    durations = schedule.finish - schedule.start
    if table is not None:
        expected = np.array(
            [
                table.time(v, len(schedule.proc_sets[v]))
                for v in range(V)
            ]
        )
        if not np.allclose(durations, expected, rtol=1e-9, atol=1e-9):
            bad = int(np.argmax(np.abs(durations - expected)))
            raise SimulationError(
                f"task {ptg.task(bad).name!r}: schedule duration "
                f"{durations[bad]:.9g} disagrees with the time table's "
                f"{expected[bad]:.9g}",
                task=bad,
                processors=tuple(
                    int(p) for p in schedule.proc_sets[bad]
                ),
                time=float(schedule.start[bad]),
            )

    # event queue: (time, order, is_finish, task) — starts sort before
    # finishes at equal time is WRONG (a predecessor finishing at t must
    # release before a successor starting at t), so finishes get order 0
    # and starts order 1.
    queue: list[tuple[float, int, int, int]] = []
    for v in range(V):
        heapq.heappush(queue, (float(schedule.start[v]), 1, 1, v))

    trace = SimulationTrace(num_processors=P)
    busy_until = np.zeros(P, dtype=np.float64)
    running_on: list[int | None] = [None] * P
    done = np.zeros(V, dtype=bool)

    while queue:
        t, order, kind, v = heapq.heappop(queue)
        name = ptg.task(v).name
        procs = tuple(int(p) for p in schedule.proc_sets[v])
        if kind == 1:  # start
            for u in ptg.predecessors(v):
                if not done[u]:
                    raise SimulationError(
                        f"task {name!r} started at t={t} before "
                        f"predecessor {ptg.task(u).name!r} finished",
                        task=v,
                        processors=procs,
                        time=t,
                    )
            for p in procs:
                if busy_until[p] > t + _EPS:
                    raise SimulationError(
                        f"task {name!r} started at t={t} on busy "
                        f"processor {p} (occupied by task "
                        f"{running_on[p]} until {busy_until[p]})",
                        task=v,
                        processors=(int(p),),
                        time=t,
                    )
            finish = t + float(durations[v])
            for p in procs:
                busy_until[p] = finish
                running_on[p] = v
            trace.record(
                TaskStarted(
                    time=t, task=v, task_name=name, processors=procs
                )
            )
            heapq.heappush(queue, (finish, 0, 0, v))
        else:  # finish
            done[v] = True
            for p in procs:
                if running_on[p] == v:
                    running_on[p] = None
            trace.record(
                TaskFinished(
                    time=t, task=v, task_name=name, processors=procs
                )
            )

    if not done.all():
        first = int(np.flatnonzero(~done)[0])
        missing = [ptg.task(v).name for v in np.flatnonzero(~done)]
        raise SimulationError(
            f"simulation ended with unfinished tasks: {missing[:5]}",
            task=first,
            time=trace.makespan,
        )
    makespan = trace.makespan
    if abs(makespan - schedule.makespan) > 1e-6 * max(1.0, makespan):
        raise SimulationError(
            f"simulated makespan {makespan} disagrees with the "
            f"schedule's {schedule.makespan}",
            time=makespan,
        )
    return SimulationResult(trace=trace, makespan=makespan)
