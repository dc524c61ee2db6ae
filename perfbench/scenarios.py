"""The in-process workloads and what every workload shares.

Each workload is a closed loop: a client sends its next operation only
after the previous one returned.  ``emts-offline`` and
``online-faults`` run one client in this process.  Every input is a pure
function of the workload seed and the operation index, so the traced
half of a ``--trace 1`` run replays the untraced half's inputs.

Every phase also times a fixed pure-Python loop, outside the timed
operations, to follow the host's speed: each operation's time is scaled
to the speed at which that loop takes :data:`REFERENCE_MS`, by the loop
timed just before and just after it (in process) or while it ran (in
the daemon).
"""

from __future__ import annotations

import bisect
import itertools
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

#: latency charged to a failed, refused or timed-out operation, so it
#: misses every percentile
FAIL_MS = 60_000.0

# seed streams, one per kind of generated input
GRAPH, RUN, FAULT, SAMPLE = 1, 2, 3, 4

#: iterations of the reference loop
REFERENCE_ITERATIONS = 20_000
#: the reference loop's time at the reference speed, in ms: about its
#: median on the 2-core VM the figures in LEDGER.md come from
REFERENCE_MS = 1.2


def reference_ms() -> float:
    """Time one run of the fixed reference loop: the host's speed now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


def speed_factor(reference: list[float]) -> float:
    """Scales a time measured beside ``reference`` to the reference speed."""
    return REFERENCE_MS / statistics.fmean(reference) if reference else 1.0


def factor_between(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """The factor of the ``(time, ms)`` reference samples taken from
    ``t0`` to ``t1``, or of the nearest one when none was."""
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
    if lo == hi:
        if not samples:
            return 1.0
        nearest = min(samples[max(lo - 1, 0):lo + 1], key=lambda s: abs(s[0] - t0))
        return speed_factor([nearest[1]])
    return speed_factor([ms for _, ms in samples[lo:hi]])


def mean_factor(*phases: Phase) -> float:
    """The time-weighted factor of every operation of ``phases``."""
    ms = sum(op.ms for phase in phases for op in phase.ops)
    scaled = sum(op.scaled_ms for phase in phases for op in phase.ops)
    return scaled / ms if ms else 1.0


def derive(seed: int, *keys: int) -> int:
    """A 31-bit seed that is a pure function of ``seed`` and ``keys``."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def percentile(samples, q: float) -> float:
    if not len(samples):
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def make_graph(kind: str, seed: int):
    """One generated PTG: ``strassen`` (V=23), ``fftN`` (V=N), ``daggen100``."""
    from repro.workloads import (
        DaggenParams,
        generate_daggen,
        generate_fft,
        generate_strassen,
    )

    if kind == "strassen":
        return generate_strassen(rng=seed)
    if kind == "daggen100":
        return generate_daggen(DaggenParams(100), rng=seed)
    fft_sizes = {"fft15": 4, "fft39": 8, "fft95": 16}
    return generate_fft(fft_sizes[kind], rng=seed)


@dataclass
class Op:
    """One operation of a phase, as the client saw it."""

    index: int
    ms: float
    ok: bool
    genomes: int = 0
    #: compared between the untraced and the traced half of a run
    output: object = None
    error: str | None = None
    extra: dict = field(default_factory=dict)
    #: scales ``ms`` to the reference speed
    factor: float = 1.0

    @property
    def scaled_ms(self) -> float:
        return self.ms * self.factor


@dataclass
class Phase:
    """The operations of one timed region and what was seen around it."""

    ops: list[Op]
    wall_s: float
    window: tuple[float, float]
    info: dict = field(default_factory=dict)
    #: reference-loop times (ms) taken during the phase
    reference: list[float] = field(default_factory=list)

    @property
    def speed_factor(self) -> float:
        return mean_factor(self)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def ok_ops(self) -> list[Op]:
        return [op for op in self.ops if op.ok]


def latencies(ops: list[Op], scaled: bool = True) -> list[float]:
    return [(op.scaled_ms if scaled else op.ms) if op.ok else FAIL_MS for op in ops]


class Workload:
    """Set-up, timed phases and output checks of one workload."""

    name = ""
    #: the root span every ledger span must sit under (``None``: any)
    ledger_root: str | None = "op"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.recorder: spans.SpanRecorder | None = None
        self._undo: list = []

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started; idempotent."""
        spans.uninstall(self._undo)

    def begin_traced(self) -> None:
        """Install the layer wrappers for the next phase."""
        self.recorder = spans.SpanRecorder()
        self._undo = spans.install(self.recorder)

    def end_traced(self) -> spans.SpanRecorder:
        """Remove the wrappers; return the spans they recorded."""
        spans.uninstall(self._undo)
        recorder, self.recorder = self.recorder, None
        return recorder

    def run_phase(self, seconds: float) -> Phase:
        raise NotImplementedError

    def check(self, phase: Phase) -> list[str]:
        """Output problems of ``phase`` (run outside the timed region)."""
        return []

    def peak_rss_mb(self, phase: Phase) -> float:
        """Peak RSS of the generator process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, untraced: Phase, traced: Phase, ledger) -> dict:
        """Workload-specific per-layer metrics."""
        return {}

    def ledger_rows(self, traced: Phase, ledger) -> list[tuple]:
        """Intervals measured outside the spans that belong in the ledger."""
        return []

    def report(self, untraced: Phase, traced: Phase, ledger) -> list[str]:
        """Extra human-readable lines for the traced run."""
        return []


def closed_loop(one, inputs_of_cycle, seconds: float) -> Phase:
    """Run whole cycles of ``one(*inputs)`` until ``seconds`` have passed.

    Whole cycles only, so every run measures the same mix.  The phase's
    wall time is the time spent inside operations: input generation
    between them, and the reference loop timed between each two, are
    the benchmark's own work.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    epoch0 = time.time()
    reference = [reference_ms()]
    for cycle in itertools.count():
        for inputs in inputs_of_cycle(cycle):
            op = one(*inputs)
            reference.append(reference_ms())
            op.factor = speed_factor(reference[-2:])
            ops.append(op)
        if time.perf_counter() - start >= seconds:
            break
    return Phase(
        ops=ops,
        wall_s=sum(op.ms for op in ops) / 1e3,
        window=(epoch0, time.time()),
        reference=reference,
    )


def failed_op(i: int, t0: float, exc: Exception) -> Op:
    ms = (time.perf_counter() - t0) * 1e3
    return Op(i, ms, False, error=f"{type(exc).__name__}: {exc}")


# -- emts-offline --------------------------------------------------------
class EmtsOffline(Workload):
    """Back-to-back in-process ``EMTS.schedule`` over a seeded mix."""

    name = "emts-offline"
    CELLS = tuple(
        (graph, platform, algorithm)
        for graph in ("strassen", "fft39", "fft95", "daggen100")
        for platform in ("chti", "grelon")
        for algorithm in ("emts5", "emts10")
    )
    SMOKE_CELLS = (("strassen", "chti", "emts5"), ("fft15", "grelon", "emts5"))

    def setup(self) -> None:
        from repro.core import emts5, emts10
        from repro.platform import by_name
        from repro.timemodels import AmdahlModel

        self.cells = self.SMOKE_CELLS if self.smoke else self.CELLS
        self.algorithms = {"emts5": emts5, "emts10": emts10}
        self.by_name = by_name
        self.model = AmdahlModel
        self._first = self._make_inputs(0)

    def _make_inputs(self, cycle: int) -> list[tuple]:
        """One cycle over every cell; each call gets a new instance."""
        out = []
        for c, (graph, platform, algorithm) in enumerate(self.cells):
            i = cycle * len(self.cells) + c
            out.append(
                (
                    i,
                    make_graph(graph, derive(self.seed, GRAPH, i)),
                    self.by_name(platform),
                    algorithm,
                    derive(self.seed, RUN, i),
                )
            )
        return out

    def _inputs(self, cycle: int) -> list[tuple]:
        if cycle == 0:
            return self._first  # made during set-up
        return self._make_inputs(cycle)

    def run_phase(self, seconds: float) -> Phase:
        return closed_loop(self._one, self._inputs, seconds)

    def _one(self, i, ptg, cluster, algorithm, rng) -> Op:
        emts = self.algorithms[algorithm]()
        model = self.model()
        recorder = self.recorder
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = emts.schedule(ptg, cluster, model, rng=rng)
            else:
                result = recorder.op(
                    emts.schedule,
                    ptg,
                    cluster,
                    model,
                    rng=rng,
                    evaluator_wrapper=recorder.evaluator_wrapper,
                    tag=i,
                )
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return failed_op(i, t0, exc)
        ms = (time.perf_counter() - t0) * 1e3
        stats = result.evaluation_stats
        return Op(
            i,
            ms,
            True,
            genomes=result.evaluations,
            output=(float(result.makespan), result.allocation.tobytes()),
            extra={
                "ptg": ptg,
                "cluster": cluster,
                "result": result,
                "algorithm": algorithm,
                "V": ptg.num_tasks,
                "P": cluster.num_processors,
                "evaluations": stats.evaluations,
                "cache_hits": stats.cache_hits,
            },
        )

    def check(self, phase: Phase) -> list[str]:
        from repro.exceptions import ReproError
        from repro.timemodels import TimeTable
        from repro.verify import ScheduleVerifier

        problems = []
        for op in phase.ops:
            if not op.ok:
                problems.append(f"run {op.index}: {op.error}")
                continue
            ptg, cluster = op.extra.pop("ptg"), op.extra.pop("cluster")
            result = op.extra.pop("result")
            table = TimeTable.build(self.model(), ptg, cluster)
            try:
                ScheduleVerifier(ptg, table).verify(
                    result.schedule, expected_makespan=result.makespan
                )
            except ReproError as exc:
                op.ok = False
                problems.append(f"run {op.index}: {exc}")
        return problems

    def layer_metrics(self, untraced, traced, ledger) -> dict:
        ops = traced.ok_ops()
        evaluations = sum(op.extra["evaluations"] for op in ops)
        hits = sum(op.extra["cache_hits"] for op in ops)
        metrics = {
            "core.evaluator.cache_hit_ratio": hits / evaluations if evaluations else 0.0,
            "core.evaluator.evaluations": evaluations / len(ops) if ops else 0.0,
        }
        for key, (us, _genomes) in kernel_by_class(ledger).items():
            metrics[f"mapping.kernel_us_per_genome.{key}"] = us
        return metrics

    def report(self, untraced, traced, ledger) -> list[str]:
        """Whole-run µs/genome per (V, P, algorithm), untraced."""
        groups: dict[tuple, list[Op]] = {}
        for op in untraced.ok_ops():
            key = (op.extra["V"], op.extra["P"], op.extra["algorithm"])
            groups.setdefault(key, []).append(op)
        lines = [
            "  whole EMTS run by class (untraced):",
            "      V    P  algorithm  runs   ms/run  genomes/run  us/genome",
        ]
        for (V, P, algorithm), ops in sorted(groups.items()):
            ms = sum(op.ms for op in ops) / len(ops)
            genomes = sum(op.genomes for op in ops) / len(ops)
            lines.append(
                f"    {V:3d}  {P:3d}  {algorithm:9s}  {len(ops):4d}  {ms:7.1f}"
                f"  {genomes:11.0f}  {ms * 1e3 / genomes:9.1f}"
            )
        lines.append("  kernel by class (traced):")
        for key, (us, genomes) in sorted(kernel_by_class(ledger).items()):
            lines.append(f"    {key:12s} {us:7.2f} us/genome over {genomes} genomes")
        return lines


def kernel_class(V: int, P: int) -> str | None:
    """``v_le40_p20`` style label of a kernel's (V, P), or ``None``."""
    if V <= 40:
        size = "v_le40"
    elif V >= 90:
        size = "v_ge90"
    else:
        return None
    return f"{size}_p{P}"


def kernel_by_class(ledger) -> dict[str, tuple[float, int]]:
    """Kernel µs/genome and genomes, split by the kernel's (V, P) class."""
    sums: dict[str, list] = {}
    for r in ledger.spans("mapping.kernel"):
        key = kernel_class(*r[8])
        if key is None:
            continue
        acc = sums.setdefault(key, [0.0, 0])
        acc[0] += (r[4] - r[3]) * 1e6
        acc[1] += r[7]
    return {
        key: (us / genomes if genomes else 0.0, genomes)
        for key, (us, genomes) in sums.items()
    }


# -- online-faults -------------------------------------------------------
#: mixed fault pressure that exercises every rung of the recovery
#: ladder
FAULT_RATES = {
    "crash_rate": 0.05,
    "failure_rate": 0.25,
    "straggler_rate": 0.25,
    "straggler_factor": 2.5,
}


class OnlineFaults(Workload):
    """In-process ``execute_online`` under seeded fault plans."""

    name = "online-faults"
    #: executions per cycle of the closed loop
    CYCLE = 4

    def setup(self) -> None:
        from repro.core import make_allocator
        from repro.mapping import map_allocations
        from repro.online import FaultPlan, ReactionPolicy, execute_online
        from repro.platform import grelon
        from repro.timemodels import SyntheticModel, TimeTable

        self.FaultPlan = FaultPlan
        self.ReactionPolicy = ReactionPolicy
        self.execute_online = execute_online
        self.mcpa = make_allocator("mcpa")
        self.map_allocations = map_allocations
        self.model = SyntheticModel()
        self.cluster = grelon()
        self.TimeTable = TimeTable
        self._first = self._make_inputs(0)

    def _make_inputs(self, cycle: int) -> list[tuple]:
        """A new MCPA-planned FFT instance (V=15) on Grelon per execution."""
        out = []
        for i in range(cycle * self.CYCLE, (cycle + 1) * self.CYCLE):
            ptg = make_graph("fft15", derive(self.seed, GRAPH, i))
            table = self.TimeTable.build(self.model, ptg, self.cluster)
            alloc = self.mcpa.allocate(ptg, table)
            out.append((i, self.map_allocations(ptg, table, alloc), table))
        return out

    def _inputs(self, cycle: int) -> list[tuple]:
        if cycle == 0:
            return self._first  # made during set-up
        return self._make_inputs(cycle)

    def run_phase(self, seconds: float) -> Phase:
        return closed_loop(self._one, self._inputs, seconds)

    def _one(self, i: int, planned, table) -> Op:
        processors = planned.cluster.num_processors
        plan = self.FaultPlan.sampled(
            derive(self.seed, FAULT, i),
            planned.ptg.num_tasks,
            processors,
            horizon=planned.makespan,
            # a task fails once by plan and once for each processor that
            # crashes under it, and one processor never crashes: this
            # budget never runs out, and with no deadline every
            # execution completes
            max_retries=processors,
            **FAULT_RATES,
        )
        kwargs = dict(
            plan=plan,
            policy=self.ReactionPolicy(),
            rng=derive(self.seed, RUN, i),
        )
        t0 = time.perf_counter()
        try:
            if self.recorder is None:
                result = self.execute_online(planned, table, **kwargs)
            else:
                result = self.recorder.op(
                    self.execute_online, planned, table, tag=i, **kwargs
                )
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return failed_op(i, t0, exc)
        ms = (time.perf_counter() - t0) * 1e3
        ok = result.outcome == "completed" and result.verified
        return Op(
            i,
            ms,
            ok,
            error=None if ok else f"outcome {result.outcome}: {result.reason}",
            output=(
                result.outcome,
                float(result.makespan),
                result.reschedules,
                tuple(sorted(result.rungs.items())),
                result.budget_used,
            ),
            extra={
                "result": result,
                "table": table,
                "reschedules": result.reschedules,
                "rungs": dict(result.rungs),
                "budget_used": result.budget_used,
            },
        )

    def check(self, phase: Phase) -> list[str]:
        from repro.exceptions import ReproError
        from repro.verify import ScheduleVerifier

        problems = []
        for op in phase.ops:
            if not op.ok:
                problems.append(f"execution {op.index}: {op.error}")
                continue
            result, table = op.extra.pop("result"), op.extra.pop("table")
            try:
                ScheduleVerifier(table.ptg, table).verify_execution(
                    result.schedule, expected_makespan=result.makespan
                )
            except ReproError as exc:
                op.ok = False
                problems.append(f"execution {op.index}: {exc}")
        return problems

    def layer_metrics(self, untraced, traced, ledger) -> dict:
        ops = untraced.ok_ops()
        n = len(ops) or 1
        reschedule_ms = [(r[4] - r[3]) * 1e3 for r in ledger.spans("online.reschedule")]
        loop_self = [ledger.self_ms[r[0]] for r in ledger.spans("op")]
        metrics = {
            "online.reschedule_ms_p50": percentile(reschedule_ms, 50),
            "online.reschedule_ms_p90": percentile(reschedule_ms, 90),
            "online.reschedules": sum(op.extra["reschedules"] for op in ops) / n,
            "online.budget_used": sum(op.extra["budget_used"] for op in ops) / n,
            "online.loop_self_ms": sum(loop_self) / len(loop_self) if loop_self else 0.0,
        }
        for rung in ("emts", "repair", "greedy"):
            metrics[f"online.rungs.{rung}"] = (
                sum(op.extra["rungs"].get(rung, 0) for op in ops) / n
            )
        return metrics
