"""Parity suite: the array verifier against the per-task loop reference.

:class:`LoopVerifier` is :class:`~repro.verify.ScheduleVerifier` as it
was written before its checks became array passes: one Python loop per
task, per edge and per processor interval.  It stays here as the
reference.  Hypothesis builds schedules with the scheduling kernel
(FFT-15/39/95, Strassen and daggen-100 on Chti and Grelon), injects
faults into them, and both verifiers must then raise the same first
violation — the same exception type, ``kind``, task, processor and
message — or both pass with equal reports, under ``verify`` and
``verify_execution`` alike.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import VerificationError
from repro.mapping import Schedule, map_allocations
from repro.platform import by_name
from repro.timemodels import AmdahlModel, TimeTable
from repro.verify import ScheduleVerifier, VerificationReport
from repro.workloads import (
    DaggenParams,
    generate_daggen,
    generate_fft,
    generate_strassen,
)

_EPS = 1e-9


class LoopVerifier:
    """The loop reference: same checks, same order, one item at a time."""

    def __init__(self, ptg, table=None, cluster=None) -> None:
        if table is not None and cluster is None:
            cluster = table.cluster
        self.ptg = ptg
        self.table = table
        self.cluster = cluster

    def verify(self, schedule, expected_makespan=None):
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
        self._check_allocations(ptg, schedule, P, V)
        if self.table is not None:
            self._check_durations(ptg, schedule, start, finish, V)
        edges = self._check_precedence(ptg, start, finish)
        intervals = self._check_exclusivity(ptg, schedule, start, finish, V)

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
        return VerificationReport(
            tasks=V,
            processors=P,
            edges_checked=edges,
            intervals_checked=intervals,
            makespan=makespan,
            durations_checked=self.table is not None,
        )

    def verify_execution(self, schedule, expected_makespan=None):
        table, self.table = self.table, None
        try:
            report = self.verify(
                schedule, expected_makespan=expected_makespan
            )
        finally:
            self.table = table
        if table is None:
            return report
        start, finish = schedule.start, schedule.finish
        for v in range(self.ptg.num_tasks):
            predicted = table.time(v, int(schedule.proc_sets[v].size))
            got = float(finish[v] - start[v])
            if got < predicted - _EPS * max(1.0, abs(predicted)):
                raise VerificationError(
                    f"task {self.ptg.task(v).name!r} executed in "
                    f"{got!r} on {schedule.proc_sets[v].size} "
                    f"processors, faster than the {table.model_name!r} "
                    f"table's prediction {predicted!r}",
                    kind="duration-short",
                    task=v,
                )
        return VerificationReport(
            tasks=report.tasks,
            processors=report.processors,
            edges_checked=report.edges_checked,
            intervals_checked=report.intervals_checked,
            makespan=report.makespan,
            durations_checked=True,
        )

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

    def _check_allocations(self, ptg, schedule, P, V) -> None:
        for v in range(V):
            ps = schedule.proc_sets[v]
            if ps.size == 0:
                raise VerificationError(
                    f"task {ptg.task(v).name!r} occupies no "
                    "processors",
                    kind="allocation-empty",
                    task=v,
                )
            if np.unique(ps).size != ps.size:
                raise VerificationError(
                    f"task {ptg.task(v).name!r} lists a processor "
                    "twice",
                    kind="allocation-duplicate",
                    task=v,
                )
            lo, hi = int(ps.min()), int(ps.max())
            if lo < 0 or hi >= P:
                raise VerificationError(
                    f"task {ptg.task(v).name!r} uses processor "
                    f"{lo if lo < 0 else hi}, outside [0, {P})",
                    kind="allocation-range",
                    task=v,
                    processor=lo if lo < 0 else hi,
                )

    def _check_durations(self, ptg, schedule, start, finish, V) -> None:
        table = self.table
        for v in range(V):
            expected = table.time(v, int(schedule.proc_sets[v].size))
            got = float(finish[v] - start[v])
            if abs(got - expected) > _EPS * max(1.0, abs(expected)):
                raise VerificationError(
                    f"task {ptg.task(v).name!r} runs for {got!r} on "
                    f"{schedule.proc_sets[v].size} processors; the "
                    f"{table.model_name!r} table predicts "
                    f"{expected!r}",
                    kind="wrong-duration",
                    task=v,
                )

    def _check_precedence(self, ptg, start, finish) -> int:
        edges = 0
        for u, v in ptg.edges:
            edges += 1
            if start[v] < finish[u] - _EPS:
                raise VerificationError(
                    f"precedence violated: task {ptg.task(v).name!r} "
                    f"starts at {start[v]!r}, before its predecessor "
                    f"{ptg.task(u).name!r} finishes at {finish[u]!r}",
                    kind="precedence",
                    task=v,
                )
        return edges

    def _check_exclusivity(self, ptg, schedule, start, finish, V) -> int:
        per_proc: dict[int, list[tuple[float, float, int]]] = {}
        intervals = 0
        for v in range(V):
            s, f = float(start[v]), float(finish[v])
            for p in schedule.proc_sets[v]:
                per_proc.setdefault(int(p), []).append((s, f, v))
                intervals += 1
        for p, spans in per_proc.items():
            spans.sort()
            for (s1, f1, v1), (s2, f2, v2) in zip(spans, spans[1:]):
                if s2 < f1 - _EPS:
                    raise VerificationError(
                        f"overlap on processor {p}: it runs "
                        f"{ptg.task(v1).name!r} until {f1!r} but "
                        f"{ptg.task(v2).name!r} starts on it at "
                        f"{s2!r}",
                        kind="overlap",
                        task=v2,
                        processor=p,
                    )
        return intervals


# ----------------------------------------------------------------------
GRAPHS = ("fft15", "fft39", "fft95", "strassen", "daggen100")
PLATFORMS = ("chti", "grelon")


@lru_cache(maxsize=None)
def problem(graph: str, platform: str):
    """``(ptg, table)`` for one of the benchmark's graph shapes."""
    if graph == "strassen":
        ptg = generate_strassen(rng=5)
    elif graph == "daggen100":
        ptg = generate_daggen(DaggenParams(100), rng=5)
    else:
        ptg = generate_fft({"fft15": 4, "fft39": 8, "fft95": 16}[graph], rng=5)
    cluster = by_name(platform)
    return ptg, TimeTable.build(AmdahlModel(), ptg, cluster)


FAULTS = (
    "nan-start",
    "nan-finish",
    "negative-start",
    "finish-before-start",
    "empty-set",
    "duplicate-processor",
    "processor-out-of-range",
    "stretched-duration",
    "short-duration",
    "broken-precedence",
    "shared-processor-overlap",
    "wrong-makespan",
)


def inject(draw, fault, ptg, P, start, finish, procs, v):
    """Apply one fault to task ``v`` (or an edge) in place."""
    V = ptg.num_tasks
    width = finish[v] - start[v]
    scale = draw(st.sampled_from((1e-12, 1e-6, 0.01, 0.5, 2.0)))
    if fault == "nan-start":
        start[v] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    elif fault == "nan-finish":
        finish[v] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    elif fault == "negative-start":
        start[v] = -scale * max(width, 1.0)
        if draw(st.booleans()):
            finish[v] = start[v] + width
    elif fault == "finish-before-start":
        finish[v] = start[v] - scale * max(width, 1.0)
    elif fault == "stretched-duration":
        finish[v] += scale * width
    elif fault == "short-duration":
        finish[v] -= min(scale, 1.0) * width
    elif fault == "broken-precedence":
        if ptg.num_edges:
            u, w = ptg.edges[draw(st.integers(0, ptg.num_edges - 1))]
            shift = start[w] - finish[u] + scale * max(width, 1.0)
            start[w] -= shift
            finish[w] -= shift
    elif fault == "empty-set":
        procs[v] = procs[v][:0]
    elif not procs[v].size:
        pass  # emptied by an earlier fault: no processor to alter
    elif fault == "duplicate-processor":
        ps = procs[v]
        procs[v] = np.append(ps, ps[draw(st.integers(0, ps.size - 1))])
    elif fault == "processor-out-of-range":
        ps = procs[v].copy()
        ps[draw(st.integers(0, ps.size - 1))] = draw(
            st.sampled_from((-1, -7, P, P + 3))
        )
        procs[v] = ps
    elif fault == "shared-processor-overlap":
        # v takes over a processor of a task w running at the same
        # time, or else moves to w's start
        busy = (start < finish[v]) & (start[v] < finish)
        busy[v] = False
        concurrent = [w for w in np.flatnonzero(busy) if procs[w].size]
        shift = not concurrent
        w = (
            draw(st.sampled_from(concurrent))
            if concurrent
            else draw(st.integers(0, V - 1))
        )
        if w != v and procs[w].size:
            ps = procs[v].copy()
            taken = procs[w][draw(st.integers(0, procs[w].size - 1))]
            if taken not in ps:
                ps[draw(st.integers(0, ps.size - 1))] = taken
            procs[v] = ps
            if shift:
                offset = start[w] - start[v] + scale * (finish[w] - start[w])
                start[v] += offset
                finish[v] += offset


@st.composite
def faulty_schedules(draw):
    """A kernel-built schedule with one kind of fault, on 1-3 tasks."""
    graph = draw(st.sampled_from(GRAPHS))
    platform = draw(st.sampled_from(PLATFORMS))
    ptg, table = problem(graph, platform)
    P = table.num_processors
    seed = draw(st.integers(0, 2**32 - 1))
    cap = draw(st.sampled_from((4, 16, P)))
    alloc = np.random.default_rng(seed).integers(
        1, min(cap, P) + 1, size=ptg.num_tasks
    )
    built = map_allocations(ptg, table, alloc)
    start = built.start.copy()
    finish = built.finish.copy()
    procs = [ps.copy() for ps in built.proc_sets]
    expected = built.makespan
    fault = draw(st.sampled_from(FAULTS))
    if fault == "wrong-makespan":
        expected = draw(
            st.sampled_from(
                (expected * 1.01, expected - 1e-6, np.nan, expected + 1e-15)
            )
        )
    else:
        tasks = draw(
            st.lists(
                st.integers(0, ptg.num_tasks - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        for v in tasks:
            inject(draw, fault, ptg, P, start, finish, procs, v)
    schedule = Schedule(ptg, built.cluster, start, finish, procs)
    pin = fault == "wrong-makespan" or draw(st.booleans())
    return ptg, table, schedule, expected if pin else None, fault


def outcome(check, schedule, expected):
    """What one verifier said: its report, or its first violation."""
    try:
        return ("pass", check(schedule, expected_makespan=expected))
    except Exception as exc:
        return (
            type(exc).__name__,
            getattr(exc, "kind", None),
            getattr(exc, "task", None),
            getattr(exc, "processor", None),
            str(exc),
        )


@settings(max_examples=300, deadline=None)
@given(case=faulty_schedules(), mode=st.sampled_from(("verify", "verify_execution")))
def test_array_verifier_matches_loop_reference(case, mode):
    ptg, table, schedule, expected, fault = case
    got = outcome(getattr(ScheduleVerifier(ptg, table), mode), schedule, expected)
    want = outcome(getattr(LoopVerifier(ptg, table), mode), schedule, expected)
    assert got == want, fault


@settings(max_examples=60, deadline=None)
@given(case=faulty_schedules(), mode=st.sampled_from(("verify", "verify_execution")))
def test_structural_checks_match_without_a_table(case, mode):
    ptg, table, schedule, expected, fault = case
    cluster = table.cluster
    got = outcome(
        getattr(ScheduleVerifier(ptg, cluster=cluster), mode), schedule, expected
    )
    want = outcome(
        getattr(LoopVerifier(ptg, cluster=cluster), mode), schedule, expected
    )
    assert got == want, fault


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("platform", PLATFORMS)
def test_kernel_schedules_pass_both(graph, platform):
    ptg, table = problem(graph, platform)
    alloc = np.random.default_rng(1).integers(
        1, table.num_processors + 1, size=ptg.num_tasks
    )
    schedule = map_allocations(ptg, table, alloc)
    for mode in ("verify", "verify_execution"):
        got = outcome(
            getattr(ScheduleVerifier(ptg, table), mode),
            schedule,
            schedule.makespan,
        )
        assert got[0] == "pass"
        assert got == outcome(
            getattr(LoopVerifier(ptg, table), mode),
            schedule,
            schedule.makespan,
        )


def test_verify_execution_leaves_the_table_in_place(fft8_ptg, synthetic_table):
    verifier = ScheduleVerifier(fft8_ptg, synthetic_table)
    schedule = map_allocations(
        fft8_ptg, synthetic_table, np.ones(fft8_ptg.num_tasks, dtype=np.int64)
    )
    finish = schedule.finish.copy()
    finish[-1] -= 1e-3
    short = Schedule(
        fft8_ptg, schedule.cluster, schedule.start, finish, schedule.proc_sets
    )
    with pytest.raises(VerificationError) as err:
        verifier.verify_execution(short)
    assert err.value.kind == "duration-short"
    assert verifier.table is synthetic_table
