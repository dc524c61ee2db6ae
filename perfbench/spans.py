"""Outside-in layer timing for the benchmark.

Every layer is timed at the calls into its public entry point: a class
method, or the module attribute its callers look up at call time.
:func:`install` swaps each entry point for a thin timing wrapper and
:func:`uninstall` puts the original object back, so the wrappers exist
only for the length of a traced run.  Spans stay in memory (one tuple
each) until the run ends.

A span is ``(id, name, thread, start, end, parent, root, n, extra)``:
``n`` is the work the call did (genomes for the kernel, 1 otherwise) and
``extra`` a small per-layer attribute (the kernel's ``(V, P)``, a
checkpoint's size in bytes).  ``tags`` maps a root span to what the
benchmark joins it with: the run index, or the service job id.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: span names that mark one operation, not a layer: their self time is
#: the unattributed remainder of the ledger
ROOT_NAMES = frozenset({"op", "service.run_request"})


def _one(args, kwargs):
    return 1


def _batch_size(args, kwargs):
    return len(args[1])


def _nothing(args, kwargs, result):
    return None


def _kernel_shape(args, kwargs, result):
    kernel = args[0]
    return (kernel.num_tasks, kernel.num_processors)


def _checkpoint_bytes(args, kwargs, result):
    try:
        return os.path.getsize(result)
    except (OSError, TypeError):
        return 0


def _job_id_of_arg(args, kwargs, result):
    return args[0].id


def _job_id_of_submit(args, kwargs, result):
    job = result[2]
    return job.id if job is not None else None


#: (layer, module, attribute path, work counter, extra, root tag)
ENTRY_POINTS = (
    ("core.mutation", "repro.core.mutation",
     "AllocationMutation.mutate", _one, _nothing, None),
    ("mapping.kernel", "repro.mapping.kernel",
     "ScheduleKernel.makespan_batch", _batch_size, _kernel_shape, None),
    ("mapping.kernel", "repro.mapping.kernel",
     "ScheduleKernel.makespan", _one, _kernel_shape, None),
    ("mapping.kernel_build", "repro.mapping.kernel",
     "ScheduleKernel.__init__", _one, _nothing, None),
    ("ea.evolve", "repro.ea.strategy",
     "EvolutionStrategy.evolve", _one, _nothing, None),
    ("ea.evolve", "repro.core.islands",
     "IslandStrategy.evolve", _one, _nothing, None),
    ("core.seeding", "repro.core.emts",
     "seed_population", _one, _nothing, None),
    ("core.seeding", "repro.online.rescheduler",
     "seed_population", _one, _nothing, None),
    ("timemodels.table_build", "repro.timemodels.base",
     "TimeTable.build", _one, _nothing, None),
    ("core.checkpoint", "repro.core.emts",
     "save_checkpoint", _one, _checkpoint_bytes, None),
    ("mapping.final_mapping", "repro.core.emts",
     "map_allocations", _one, _nothing, None),
    ("verify.verify", "repro.verify.verifier",
     "ScheduleVerifier.verify", _one, _nothing, None),
    ("verify.verify", "repro.verify.verifier",
     "ScheduleVerifier.verify_execution", _one, _nothing, None),
    ("online.reschedule", "repro.online.rescheduler",
     "Rescheduler.reschedule", _one, _nothing, None),
    ("service.prepare", "repro.service.cache",
     "prepare_problem", _one, _nothing, None),
    ("service.protocol.parse", "repro.service.server",
     "parse_request", _one, _nothing, None),
    ("service.protocol.result_key", "repro.service.server",
     "result_key", _one, _nothing, None),
    ("service.submit", "repro.service.server",
     "SchedulingService.submit", _one, _nothing, _job_id_of_submit),
    ("service.spool.persist", "repro.service.jobs",
     "JobStore.persist", _one, _nothing, None),
    ("service.run_request", "repro.service.worker",
     "run_request", _one, _nothing, _job_id_of_arg),
)


class SpanRecorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.tags: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: add to a ``perf_counter`` reading to get epoch seconds
        self.epoch_offset = time.time() - time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name, fn, count=_one, extra=_nothing, tag=None):
        """``fn`` wrapped so that every call records one span."""
        records = self.records
        tags = self.tags
        ids = self._ids
        perf = time.perf_counter
        stack_of = self._stack
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            if stack:
                parent, root = stack[-1][0], stack[-1][1]
            else:
                parent, root = 0, sid
            n = count(args, kwargs)
            stack.append((sid, root))
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                records.append(
                    (sid, name, get_ident(), t0, t1, parent, root, n,
                     extra(args, kwargs, result))
                )
                if tag is not None and result is not None:
                    tags[sid] = tag(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, fn, *args, tag=None, n=1, **kwargs):
        """Call ``fn`` as one benchmark operation (a root span)."""
        wrapped = self.timed(
            "op",
            fn,
            count=lambda a, k: n,
            tag=None if tag is None else (lambda a, k, r: tag),
        )
        return wrapped(*args, **kwargs)

    def evaluator_wrapper(self, inner):
        """``EMTS.schedule(evaluator_wrapper=...)`` hook timing the stack."""
        return _TimedEvaluator(inner, self)

    # -- persistence ----------------------------------------------------
    def dump(self, path) -> None:
        doc = {
            "epoch_offset": self.epoch_offset,
            "records": self.records,
            "tags": {str(k): v for k, v in self.tags.items()},
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "SpanRecorder":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rec = cls()
        rec.epoch_offset = doc["epoch_offset"]
        rec.records = [
            tuple(r[:8])
            + (tuple(r[8]) if isinstance(r[8], list) else r[8],)
            for r in doc["records"]
        ]
        rec.tags = {int(k): v for k, v in doc["tags"].items()}
        return rec


class _TimedEvaluator:
    """Transparent proxy timing ``evaluate`` and ``evaluate_batch``.

    Everything else (``stats``, ``close``, ``inner``) resolves on the
    wrapped evaluator, so the engine sees the stack it built.
    """

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        size = lambda a, k: len(a[0])  # noqa: E731
        self._evaluate = recorder.timed(
            "core.evaluator", inner.evaluate, count=size
        )
        self._evaluate_batch = recorder.timed(
            "core.evaluator", inner.evaluate_batch, count=size
        )

    def evaluate(self, genomes, abort_above=None):
        return self._evaluate(genomes, abort_above=abort_above)

    def evaluate_batch(self, genome_block, abort_above=None):
        return self._evaluate_batch(genome_block, abort_above=abort_above)

    def __getattr__(self, name):
        return getattr(self.inner, name)


# -- installing and removing the wrappers --------------------------------
def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _current(owner, attr):
    if isinstance(owner, type):
        # the raw class attribute keeps classmethod descriptors intact
        return owner.__dict__[attr]
    return getattr(owner, attr)


def install(recorder: SpanRecorder) -> list[tuple]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the undo list."""
    undo: list[tuple] = []
    try:
        for layer, module, path, count, extra, tag in ENTRY_POINTS:
            owner, attr = _resolve(module, path)
            original = _current(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    recorder.timed(layer, original.__func__, count, extra, tag)
                )
            else:
                wrapped = recorder.timed(layer, original, count, extra, tag)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Restore every original entry point, newest wrapper first."""
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


def entry_point_objects() -> list[object]:
    """The object currently behind every entry point (identity checks)."""
    return [
        _current(*_resolve(module, path))
        for _layer, module, path, *_ in ENTRY_POINTS
    ]


# -- the ledger ----------------------------------------------------------
def _ms(record) -> float:
    return (record[4] - record[3]) * 1e3


class Ledger:
    """Self time per layer, from one set of spans.

    A span's self time is its duration minus that of its child spans.
    ``window`` (epoch seconds) keeps only spans whose root operation
    started inside it — a daemon's spans also cover its warm-up.
    ``root`` keeps only spans under a root span of that name — the
    benchmark's own input generation calls some entry points too.
    """

    def __init__(self, recorder: SpanRecorder, window=None, root=None) -> None:
        records = recorder.records
        if window is not None:
            starts = {r[0]: r[3] + recorder.epoch_offset for r in records}
            lo, hi = window
            records = [r for r in records if lo <= starts.get(r[6], -1) <= hi]
        if root is not None:
            roots = {r[0] for r in records if r[1] == root and r[5] == 0}
            records = [r for r in records if r[6] in roots]
        self.records = records
        self.by_id = {r[0]: r for r in records}
        self.tags = recorder.tags
        self.epoch_offset = recorder.epoch_offset
        child_ms: dict[int, float] = defaultdict(float)
        for r in records:
            if r[5]:
                child_ms[r[5]] += _ms(r)
        self.self_ms = {r[0]: _ms(r) - child_ms[r[0]] for r in records}
        self.count: dict[str, int] = defaultdict(int)
        self.total_ms: dict[str, float] = defaultdict(float)
        self.layer_self_ms: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        for r in records:
            self.count[r[1]] += 1
            self.total_ms[r[1]] += _ms(r)
            self.layer_self_ms[r[1]] += self.self_ms[r[0]]
            self.work[r[1]] += r[7]

    def spans(self, name: str) -> list[tuple]:
        return [r for r in self.records if r[1] == name]

    def _has_ancestor(self, record, name: str) -> bool:
        parent = self.by_id.get(record[5])
        while parent is not None:
            if parent[1] == name:
                return True
            parent = self.by_id.get(parent[5])
        return False

    def outermost(self, name: str) -> list[tuple]:
        """Spans of ``name`` not nested in another span of that name."""
        return [r for r in self.spans(name) if not self._has_ancestor(r, name)]

    def under(self, name: str, ancestor: str) -> list[tuple]:
        """Spans of ``name`` with an ``ancestor`` span above them."""
        return [r for r in self.spans(name) if self._has_ancestor(r, ancestor)]

    def mean_ms(self, name: str, *, outermost: bool = False) -> float:
        spans = self.outermost(name) if outermost else self.spans(name)
        return sum(_ms(r) for r in spans) / len(spans) if spans else 0.0

    def self_ms_of(self, name: str) -> float:
        return self.layer_self_ms.get(name, 0.0)

    def layers(self) -> list[str]:
        return sorted(n for n in self.count if n not in ROOT_NAMES)

    def attributed_ms(self) -> float:
        return sum(self.layer_self_ms[n] for n in self.layers())

    def table(self, e2e_ms: float, extra_rows=()) -> list[str]:
        """Layer x {count, self ms, share} rows, largest share first.

        ``extra_rows`` are ``(layer, count, ms)`` intervals measured
        outside the spans (queue wait and notification from a reply's
        timestamps).
        """
        rows = [(n, self.count[n], self.layer_self_ms[n]) for n in self.layers()]
        rows.extend(extra_rows)
        rows.sort(key=lambda row: -row[2])

        def share(ms: float) -> float:
            return ms / e2e_ms if e2e_ms > 0 else 0.0

        lines = [f"  {'layer':30s} {'count':>8s} {'self ms':>11s} {'share':>7s}"]
        for name, count, ms in rows:
            lines.append(f"  {name:30s} {count:8d} {ms:11.1f} {share(ms):7.1%}")
        rest = e2e_ms - sum(row[2] for row in rows)
        lines.append(f"  {'(unattributed)':30s} {'':8s} {rest:11.1f} {share(rest):7.1%}")
        lines.append(f"  {'(end to end)':30s} {'':8s} {e2e_ms:11.1f} {1.0:7.1%}")
        return lines
