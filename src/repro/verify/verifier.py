"""Independent schedule verification.

A :class:`ScheduleVerifier` re-derives every invariant of a
:class:`~repro.mapping.Schedule` from first principles — directly from
the PTG's edge list, the platform's processor count and (when given) the
time table — without trusting any intermediate the scheduler produced.
It is the library's one judge of a schedule: served results, perfbench
outputs, loaded files and the test suites all go through it.  It shares
*no code path* with the engines it checks, so a bug in the scheduler's
bookkeeping cannot hide itself; the discrete-event simulator
(:func:`repro.simulator.simulate`) is the second, event-driven replay,
and a per-task loop in ``tests/test_verify_parity.py`` is this module's
reference.

Each invariant group is one numpy pass over whole arrays — times, the
processor sets concatenated in task order, the edge list, and the
intervals sorted once per processor — that then reports the first
violation in task (edge, processor) order, so a schedule fails with the
same error whichever way the checks are computed.

Checked invariants, each with a stable ``kind`` tag on the raised
:class:`~repro.exceptions.VerificationError`:

========================  ==============================================
kind                      invariant
========================  ==============================================
``graph-mismatch``        the schedule belongs to the verifier's PTG
``platform-mismatch``     ... and to its cluster
``non-finite``            all start/finish values are finite
``negative-start``        no task starts before t = 0
``negative-duration``     no task finishes before it starts
``allocation-empty``      every task occupies at least one processor
``allocation-duplicate``  no task lists a processor twice
``allocation-range``      processor indices lie in ``[0, P)``
``wrong-duration``        ``finish - start == T(v, s(v))`` (needs table)
``duration-short``        executed duration >= ``T(v, s(v))`` — only in
                          :meth:`ScheduleVerifier.verify_execution`,
                          where stragglers may legally inflate durations
``precedence``            successors start after predecessors finish
``overlap``               no processor runs two tasks at once
``makespan-mismatch``     the reported makespan matches the placements
========================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import VerificationError
from ..graph import PTG
from ..mapping import Schedule
from ..platform import Cluster
from ..timemodels import TimeTable

__all__ = ["ScheduleVerifier", "VerificationReport", "VIOLATION_KINDS"]

#: Numerical slack for start/finish comparisons.
_EPS = 1e-9

#: Every ``kind`` tag :class:`ScheduleVerifier` can emit.
VIOLATION_KINDS = (
    "graph-mismatch",
    "platform-mismatch",
    "non-finite",
    "negative-start",
    "negative-duration",
    "allocation-empty",
    "allocation-duplicate",
    "allocation-range",
    "wrong-duration",
    "duration-short",
    "precedence",
    "overlap",
    "makespan-mismatch",
)


@dataclass(frozen=True)
class VerificationReport:
    """Summary of one successful verification pass."""

    tasks: int
    processors: int
    edges_checked: int
    intervals_checked: int
    makespan: float
    durations_checked: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dur = "with" if self.durations_checked else "without"
        return (
            f"verified {self.tasks} tasks on {self.processors} "
            f"processors ({self.edges_checked} precedence edges, "
            f"{self.intervals_checked} intervals, {dur} duration "
            f"check); makespan {self.makespan:.6g}"
        )


class ScheduleVerifier:
    """Checks every invariant of a schedule against its problem.

    Parameters
    ----------
    ptg:
        The task graph the schedule claims to implement.
    table:
        Optional precomputed time table.  When given, each task's
        recorded duration must equal ``T(v, s(v))`` and the platform is
        taken from the table; without it the duration check is skipped
        (the structural invariants still hold).
    cluster:
        The platform; required when ``table`` is ``None``, derived from
        the table otherwise.
    """

    def __init__(
        self,
        ptg: PTG,
        table: TimeTable | None = None,
        cluster: Cluster | None = None,
    ) -> None:
        if table is not None and cluster is None:
            cluster = table.cluster
        if cluster is None:
            raise VerificationError(
                "ScheduleVerifier needs a table or a cluster",
                kind="platform-mismatch",
            )
        self.ptg = ptg
        self.table = table
        self.cluster = cluster
        #: ``(sources, targets)`` of the PTG's edges, in edge-list order
        self._edges = np.array(
            ptg.edges, dtype=np.int64
        ).reshape(-1, 2).T.copy()

    # ------------------------------------------------------------------
    def verify(
        self,
        schedule: Schedule,
        expected_makespan: float | None = None,
    ) -> VerificationReport:
        """Raise :class:`VerificationError` on any violated invariant.

        ``expected_makespan`` additionally pins the value some other
        component reported for this schedule (an evaluator's fitness, a
        serialized file's ``makespan`` field) against the placements.
        Returns a :class:`VerificationReport` when everything holds.
        """
        return self._verify(schedule, expected_makespan, executed=False)

    def verify_execution(
        self,
        schedule: Schedule,
        expected_makespan: float | None = None,
    ) -> VerificationReport:
        """Verify an *as-executed* schedule from the online runtime.

        Executed placements keep every structural invariant (precedence,
        exclusivity, allocation sanity, makespan consistency) but their
        durations may legitimately exceed the table's prediction —
        stragglers inflate execution times.  What can never happen is a
        task finishing *faster* than the model predicts for its
        processor count; that would mean the runtime dropped work.  So
        this mode replaces the exact ``wrong-duration`` equality with a
        one-sided ``duration-short`` bound, checked after every other
        invariant, when a table is available.
        """
        return self._verify(schedule, expected_makespan, executed=True)

    def _verify(
        self,
        schedule: Schedule,
        expected_makespan: float | None,
        executed: bool,
    ) -> VerificationReport:
        """The checks of both modes; ``executed`` picks the duration rule."""
        ptg = self.ptg
        schedule_ptg = schedule.ptg
        if schedule_ptg is not ptg and schedule_ptg != ptg:
            raise VerificationError(
                f"schedule belongs to PTG {schedule_ptg.name!r}, "
                f"verifier was built for {ptg.name!r}",
                kind="graph-mismatch",
            )
        if schedule.cluster != self.cluster:
            raise VerificationError(
                f"schedule belongs to cluster "
                f"{schedule.cluster.name!r}, verifier was built for "
                f"{self.cluster.name!r}",
                kind="platform-mismatch",
            )

        V = ptg.num_tasks
        P = self.cluster.num_processors
        start = schedule.start
        finish = schedule.finish

        self._check_times(ptg, start, finish)
        sizes, procs, owner = self._check_allocations(
            ptg, schedule.proc_sets, P, V
        )
        if self.table is not None and not executed:
            self._check_durations(ptg, sizes, start, finish, exact=True)
        edges = self._check_precedence(ptg, start, finish)
        self._check_exclusivity(ptg, procs, owner, start, finish)

        makespan = float(finish.max()) if V else 0.0
        if expected_makespan is not None and (
            not np.isfinite(expected_makespan)
            or abs(expected_makespan - makespan)
            > _EPS * max(1.0, abs(makespan))
        ):
            raise VerificationError(
                f"reported makespan {expected_makespan!r} disagrees "
                f"with the placements' completion time {makespan!r}",
                kind="makespan-mismatch",
            )
        if self.table is not None and executed:
            self._check_durations(ptg, sizes, start, finish, exact=False)
        return VerificationReport(
            tasks=V,
            processors=P,
            edges_checked=edges,
            intervals_checked=int(procs.size),
            makespan=makespan,
            durations_checked=self.table is not None,
        )

    # -- individual invariant groups -----------------------------------
    # Each group checks every task (edge, interval) at once and then
    # raises for the first violation in task (edge, processor) order.
    def _check_times(self, ptg, start, finish) -> None:
        finite = np.isfinite(start) & np.isfinite(finish)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise VerificationError(
                f"task {ptg.task(bad).name!r} has a non-finite "
                f"placement: start={start[bad]!r}, "
                f"finish={finish[bad]!r}",
                kind="non-finite",
                task=bad,
            )
        early = start < -_EPS
        if early.any():
            bad = int(np.flatnonzero(early)[0])
            raise VerificationError(
                f"task {ptg.task(bad).name!r} starts at "
                f"{start[bad]!r}, before t=0",
                kind="negative-start",
                task=bad,
            )
        backwards = finish < start - _EPS
        if backwards.any():
            bad = int(np.flatnonzero(backwards)[0])
            raise VerificationError(
                f"task {ptg.task(bad).name!r} finishes at "
                f"{finish[bad]!r}, before its start {start[bad]!r}",
                kind="negative-duration",
                task=bad,
            )

    def _check_allocations(self, ptg, proc_sets, P, V):
        """Check every processor set; return them concatenated.

        Returns ``(sizes, procs, owner)``: each task's set size, all
        sets end to end in task order, and the task of each entry.
        """
        sizes = np.fromiter(
            (ps.size for ps in proc_sets), dtype=np.int64, count=V
        )
        procs = (
            np.concatenate(proc_sets) if V else np.empty(0, np.int64)
        )
        owner = np.repeat(np.arange(V), sizes)
        empty = sizes == 0
        order = np.lexsort((procs, owner))
        by_task, by_proc = owner[order], procs[order]
        twin = (by_task[1:] == by_task[:-1]) & (by_proc[1:] == by_proc[:-1])
        duplicate = np.zeros(V, dtype=bool)
        duplicate[by_task[1:][twin]] = True
        outside = np.zeros(V, dtype=bool)
        outside[owner[(procs < 0) | (procs >= P)]] = True
        bad = empty | duplicate | outside
        if not bad.any():
            return sizes, procs, owner
        v = int(np.flatnonzero(bad)[0])
        if empty[v]:
            raise VerificationError(
                f"task {ptg.task(v).name!r} occupies no processors",
                kind="allocation-empty",
                task=v,
            )
        if duplicate[v]:
            raise VerificationError(
                f"task {ptg.task(v).name!r} lists a processor twice",
                kind="allocation-duplicate",
                task=v,
            )
        ps = proc_sets[v]
        lo, hi = int(ps.min()), int(ps.max())
        raise VerificationError(
            f"task {ptg.task(v).name!r} uses processor "
            f"{lo if lo < 0 else hi}, outside [0, {P})",
            kind="allocation-range",
            task=v,
            processor=lo if lo < 0 else hi,
        )

    def _check_durations(self, ptg, sizes, start, finish, exact) -> None:
        """``wrong-duration`` if ``exact``, else ``duration-short``."""
        table = self.table
        got = finish - start
        columns = table.num_processors
        expected = table.array[
            np.arange(sizes.size), np.minimum(sizes, columns) - 1
        ]
        slack = _EPS * np.maximum(1.0, np.abs(expected))
        if exact:
            bad = np.abs(got - expected) > slack
        else:
            bad = got < expected - slack
        # a set wider than the table: table.time raises for it below
        bad |= sizes > columns
        if not bad.any():
            return
        v = int(np.flatnonzero(bad)[0])
        predicted = table.time(v, int(sizes[v]))
        taken = float(got[v])
        if exact:
            raise VerificationError(
                f"task {ptg.task(v).name!r} runs for {taken!r} on "
                f"{sizes[v]} processors; the {table.model_name!r} table "
                f"predicts {predicted!r}",
                kind="wrong-duration",
                task=v,
            )
        raise VerificationError(
            f"task {ptg.task(v).name!r} executed in {taken!r} on "
            f"{sizes[v]} processors, faster than the "
            f"{table.model_name!r} table's prediction {predicted!r}",
            kind="duration-short",
            task=v,
        )

    def _check_precedence(self, ptg, start, finish) -> int:
        src, dst = self._edges
        late = start[dst] < finish[src] - _EPS
        if late.any():
            e = int(np.flatnonzero(late)[0])
            u, v = int(src[e]), int(dst[e])
            raise VerificationError(
                f"precedence violated: task {ptg.task(v).name!r} "
                f"starts at {start[v]!r}, before its predecessor "
                f"{ptg.task(u).name!r} finishes at {finish[u]!r}",
                kind="precedence",
                task=v,
            )
        return int(src.size)

    def _check_exclusivity(self, ptg, procs, owner, start, finish) -> None:
        """No two consecutive intervals on a processor may overlap.

        Intervals are ordered by (processor, start, finish, task); a
        clash on the processor used first, in task order, is reported
        first.
        """
        s, f = start[owner], finish[owner]
        # stable: equal (processor, start, finish) keep task order
        order = np.lexsort((f, s, procs))
        p, s, f, owner = procs[order], s[order], f[order], owner[order]
        clash = (p[1:] == p[:-1]) & (s[1:] < f[:-1] - _EPS)
        if not clash.any():
            return
        first_use = {
            int(q): int(np.argmax(procs == q))
            for q in np.unique(p[:-1][clash])
        }
        q = min(first_use, key=first_use.__getitem__)
        i = int(np.flatnonzero(clash & (p[:-1] == q))[0])
        v1, v2 = int(owner[i]), int(owner[i + 1])
        raise VerificationError(
            f"overlap on processor {q}: it runs "
            f"{ptg.task(v1).name!r} until {float(f[i])!r} but "
            f"{ptg.task(v2).name!r} starts on it at {float(s[i + 1])!r}",
            kind="overlap",
            task=v2,
            processor=q,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleVerifier(ptg={self.ptg.name!r}, "
            f"cluster={self.cluster.name!r}, "
            f"durations={self.table is not None})"
        )
