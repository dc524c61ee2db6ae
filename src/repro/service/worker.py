"""Warm worker pool: threads that drain the queue and run EMTS.

Each worker thread owns a private :class:`~repro.service.cache.WarmCache`
(no locking on the hot path): the first request for a problem pays for
PTG parsing, time-table construction and the compiled-kernel binding;
every later request on that problem starts evolving immediately.

With a spool, a run journals a resumable checkpoint into it on a
cadence set by :func:`~repro.service.protocol.estimate_work`: only once
the generations since the last journal cost well more than a journal
(a short request journals never; replaying it from the request is
cheaper and bit-identical).  A drain (SIGTERM) stops runs at the next
generation boundary and journals the stop point, so a restarted daemon
resumes them bit-identically; a completed run writes no journal.

Metrics: worker threads record straight into the daemon's one
:class:`~repro.obs.MetricsRegistry`, which locks its own instruments.
A job's counters and latencies are recorded before its waiters wake,
so a client's scrape right after its reply counts its own job.

Worker-death robustness: job-level errors are caught inside
:meth:`WorkerPool._run_one`, but a fault that escapes it —
``SystemExit`` from library code, a ``MemoryError`` mid-evolution, a
bug in the worker loop itself — would silently shrink the pool and
strand the in-flight job in ``running`` forever.  Each thread therefore
runs under a guard that, on any escaping exception, requeues the
in-flight job (bounded by ``max_job_attempts``, after which it fails
with code ``worker-crashed``), counts the death in
``service.workers.died``, and spawns a replacement thread unless the
pool is stopping.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any

from ..core import emts5, emts10
from ..mapping import schedule_to_dict
from ..obs import MetricsRegistry
from ..obs.trace import TraceContext, Tracer, use_context
from ..util.crash import crash_point
from ..verify import ScheduleVerifier
from .cache import ResultCache, WarmCache
from .jobs import FINISHED_STATES, Job, JobStore
from .protocol import (
    PROTOCOL_VERSION,
    ScheduleRequest,
    estimate_work,
    request_trace_context,
)
from .queue import FairQueue

__all__ = ["WorkerPool", "run_request", "LATENCY_BUCKETS"]

#: log-spaced seconds buckets, 1 ms .. 60 s — wide enough for cold
#: compiles, fine enough to gate p99 on warm hits
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _make_service_algorithm(request: ScheduleRequest):
    factory = emts5 if request.algorithm == "emts5" else emts10
    overrides: dict[str, Any] = {}
    if request.generations is not None:
        overrides["generations"] = request.generations
    return factory(**overrides)


def run_request(
    job: Job,
    warm: WarmCache,
    *,
    checkpoint_path=None,
    resume_from=None,
    tracer: Tracer | None = None,
) -> dict[str, Any]:
    """Execute one job's EMTS run and build its ``result`` document.

    The document contains only run-deterministic fields (no wall-clock
    timings, no cumulative evaluator counters), so for a fixed request
    it is bit-identical whether produced by a cold worker, a warm
    worker, a resumed run after a drain, or the offline ``repro-emts``
    CLI with the same seed.

    A ``tracer`` (the worker's per-attempt shard) is handed straight to
    the engine, which nests its ``run_start``..``run_end`` span — with
    every generation, checkpoint and verify event — under the open
    ``service_run`` span.

    With a ``checkpoint_path`` the run journals every
    ``estimate_work(request).journal_interval`` generations.
    """
    request = job.request
    prepared = warm.get_or_prepare(request)
    prepared.runs += 1
    algorithm = _make_service_algorithm(request)
    result = algorithm.schedule(
        prepared.ptg,
        prepared.cluster,
        prepared.table,
        rng=request.seed,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=estimate_work(request).journal_interval,
        resume_from=resume_from,
        max_wall_time=request.max_wall_time,
        stop_event=job.stop_event,
        trace=tracer,
    )
    if result.interrupted and job.stop_event.is_set():
        # stopped by a drain: the run already journaled its checkpoint;
        # signal the caller to park the job for resumption
        raise _Interrupted()
    report = ScheduleVerifier(prepared.ptg, prepared.table).verify(
        result.schedule, expected_makespan=result.makespan
    )
    if tracer is not None:
        # the service's own acceptance check, distinct from any
        # in-run verification the engine may have traced already
        tracer.event(
            "verify", attrs={"verified": report.tasks, "service": True}
        )
    return {
        "protocol": PROTOCOL_VERSION,
        "algorithm": request.algorithm,
        "seed": request.seed,
        "makespan": result.makespan,
        "schedule": schedule_to_dict(result.schedule),
        "seed_makespans": {
            k: float(v) for k, v in sorted(result.seed_makespans.items())
        },
        "generations": result.log.generations,
        "evaluations": result.log.total_evaluations,
        "problem_fingerprint": prepared.fingerprint,
        "verified": True,
        "verified_tasks": report.tasks,
        "interrupted": bool(result.interrupted),
    }


class _Interrupted(Exception):
    """Internal: the run was stopped by a drain at a generation boundary."""


def _checkpoint_resumable(path) -> bool:
    """Can the engine resume this checkpoint at all?

    ``False`` for checkpoints marking a completed run (the engine
    rightly refuses them: there is nothing left to evolve) and for
    unreadable ones — both are crash debris the worker answers with a
    fresh run instead of a failed job.
    """
    from ..core.checkpoint import load_checkpoint
    from ..exceptions import CheckpointError

    try:
        return not load_checkpoint(path).completed
    except CheckpointError:
        return False


class WorkerPool:
    """N worker threads draining a :class:`FairQueue`."""

    def __init__(
        self,
        queue: FairQueue,
        store: JobStore,
        result_cache: ResultCache,
        *,
        workers: int = 2,
        metrics: MetricsRegistry | None = None,
        warm_max_problems: int = 32,
        poll_interval: float = 0.1,
        max_job_attempts: int = 3,
        trace_dir: str | Path | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need workers >= 1, got {workers}")
        if max_job_attempts < 1:
            raise ValueError(
                f"need max_job_attempts >= 1, got {max_job_attempts}"
            )
        self.queue = queue
        self.store = store
        self.result_cache = result_cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.warm_max_problems = warm_max_problems
        self.poll_interval = poll_interval
        self.max_job_attempts = int(max_job_attempts)
        self.trace_dir = (
            Path(trace_dir) if trace_dir is not None else None
        )
        self.num_workers = int(workers)
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._running_lock = threading.Lock()
        self._running: dict[str, Job] = {}
        #: worker index -> the job it is processing right now; read by
        #: the death guard to recover in-flight work
        self._inflight: dict[int, Job] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        for i in range(self.num_workers):
            self._spawn(i)

    def _spawn(self, index: int) -> None:
        t = threading.Thread(
            target=self._worker_guard,
            args=(index,),
            name=f"repro-service-worker-{index}",
            daemon=True,
        )
        t.start()
        self._threads.append(t)

    def running_jobs(self) -> list[Job]:
        with self._running_lock:
            return list(self._running.values())

    def initiate_drain(self) -> None:
        """Stop taking new jobs; interrupt running runs gracefully."""
        self._draining.set()
        self._stop.set()
        self.queue.close()
        for job in self.running_jobs():
            job.stop_event.set()

    def stop(self, timeout: float = 60.0) -> None:
        """Signal workers to exit and join them."""
        self._stop.set()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))

    # ------------------------------------------------------------------
    def _worker_guard(self, index: int) -> None:
        """Run the worker loop; survive its death by any exception.

        ``_run_one`` already contains job-level error handling, so only
        faults *outside* that net reach here: ``SystemExit`` or
        ``KeyboardInterrupt`` raised inside library code, resource
        exhaustion, or a bug in the loop itself.  The in-flight job (if
        any) is requeued or failed, the death is counted, and a
        replacement thread takes over the index.
        """
        try:
            self._worker_loop(index)
        except BaseException as exc:  # noqa: BLE001 — the whole point
            with self._running_lock:
                job = self._inflight.pop(index, None)
            self.metrics.counter("service.workers.died").inc()
            if job is not None:
                self._recover_inflight(job, exc)
            if not self._stop.is_set():
                self._spawn(index)

    def _recover_inflight(self, job: Job, exc: BaseException) -> None:
        """Requeue (bounded) or fail the job a dying worker dropped."""
        with self._running_lock:
            self._running.pop(job.id, None)
        if job.attempts < self.max_job_attempts:
            try:
                job.state = "queued"
                self.store.persist(job)
                self.queue.put(
                    job,
                    tenant=job.request.tenant,
                    priority=job.request.priority,
                )
                self.metrics.counter("service.jobs.requeued").inc()
                return
            except Exception:
                # queue closed (drain) or full: fall through to fail
                pass
        job.error = {
            "code": "worker-crashed",
            "message": (
                f"worker thread died ({type(exc).__name__}: {exc}) on "
                f"attempt {job.attempts}/{self.max_job_attempts}"
            ),
        }
        job.state = "failed"
        job.finished_at = time.time()
        self.store.persist(job)
        self.metrics.counter("service.jobs.failed").inc()
        self.store.finish(job)

    def _worker_loop(self, index: int) -> None:
        warm = WarmCache(self.warm_max_problems)
        while not self._stop.is_set():
            job = self.queue.get(timeout=self.poll_interval)
            if job is None:
                continue
            with self._running_lock:
                self._inflight[index] = job
            self._run_one(job, warm)
            with self._running_lock:
                self._inflight.pop(index, None)
            if job.state in FINISHED_STATES:
                # last: a client woken by its reply finds its own job
                # counted on /metrics and /v1/stats
                self.store.finish(job)

    # ------------------------------------------------------------------
    def _open_attempt_trace(
        self, job: Job
    ) -> tuple[Tracer | None, TraceContext | None]:
        """Open this attempt's trace shard, anchored under the request.

        The shard's :class:`~repro.obs.trace.TraceContext` is the
        request context's ``attempt-<n>`` child — distinct per attempt,
        so retried jobs never collide on derived span ids — and its
        first event is a ``queue_wait`` stamped with *that context
        itself*: the one span whose parent is the client-minted request
        root.  Every later event in the shard mirrors under it, which
        is what lets the assembler hang the whole attempt off the
        request tree.
        """
        if self.trace_dir is None:
            return None, None
        ctx = request_trace_context(job.request).child(
            f"attempt-{job.attempts}"
        )
        tracer = Tracer(
            self.trace_dir
            / f"job-{ctx.trace_id}-a{job.attempts}.jsonl",
            context=ctx,
        )
        tracer.event(
            "queue_wait",
            attrs={
                "attempt": job.attempts,
                "priority": job.request.priority,
                "tenant": job.request.tenant,
            },
            dur=max(0.0, job.wait_seconds() or 0.0),
            ctx=ctx,
        )
        return tracer, ctx

    @staticmethod
    def _end_run_span(tracer: Tracer | None, **attrs: Any) -> None:
        """Close the attempt's ``service_run`` span, debris included.

        A failure escaping the engine can leave its ``run_start`` span
        dangling on the shard's stack; it is closed (marked
        ``aborted``) so the shard stays structurally valid before the
        ``service_run_end`` goes out.
        """
        if tracer is None:
            return
        while tracer.depth > 1:
            tracer.end("run_end", attrs={"aborted": True})
        tracer.end(
            "service_run_end",
            attrs={k: v for k, v in attrs.items() if v is not None},
        )

    def _run_one(self, job: Job, warm: WarmCache) -> None:
        job.attempts += 1
        job.state = "running"
        job.started_at = time.time()
        with self._running_lock:
            self._running[job.id] = job
        self.store.persist(job)
        tracer, ctx = self._open_attempt_trace(job)
        try:
            with use_context(ctx):
                self._execute(job, warm, tracer)
        finally:
            if tracer is not None:
                tracer.close()

    def _execute(
        self,
        job: Job,
        warm: WarmCache,
        tracer: Tracer | None,
    ) -> None:
        store = self.store
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin(
                "service_run_start",
                attrs={"attempt": job.attempts, "job_id": job.id},
            )
        try:
            # an identical request may have completed while we queued
            cached = self.result_cache.get(job.key)
            if cached is not None:
                job.set_result(*cached)
                job.served_from = "result-cache"
                self.metrics.counter("service.jobs.served_from_cache").inc()
                self._end_run_span(
                    tracer, state="done", served_from="result-cache"
                )
                self._finish(job, "done")
                return

            ckpt = store.checkpoint_path(job)
            resume = ckpt if ckpt is not None and ckpt.exists() else None
            if resume is not None and not _checkpoint_resumable(resume):
                # two crash shapes leave a checkpoint that must NOT be
                # passed to the engine: a *completed* one (a run
                # journaled every generation archives its end; if the
                # daemon died before the result became durable there is
                # nothing left to run) and an unreadable one.  Either
                # way a fresh deterministic run re-derives the exact
                # same result bits.
                resume = None
            if self._draining.is_set():
                job.stop_event.set()
            warm_hits_before = warm.stats.hits
            result_doc = run_request(
                job,
                warm,
                checkpoint_path=ckpt,
                resume_from=resume,
                tracer=tracer,
            )
            warm_hit = warm.stats.hits > warm_hits_before
            if warm_hit:
                self.metrics.counter("service.cache.warm.hits").inc()
            else:
                self.metrics.counter("service.cache.warm.misses").inc()
            # the run is complete and verified but the done record is
            # not yet durable: dying here forces a full re-execution on
            # restart, which determinism makes observationally idempotent
            crash_point("pre-result-persist")
            job.result = result_doc
            job.served_from = "resume" if resume is not None else "run"
            if not result_doc["interrupted"]:
                # wall-time-truncated answers are valid but depend on
                # machine speed; only deterministic runs are cacheable.
                # result_json encodes the result, once for the job: its
                # done record, its replies and later cache hits reuse it
                self.result_cache.put(
                    job.key, (result_doc, job.result_json)
                )
            self.metrics.counter("service.jobs.completed").inc()
            self.metrics.histogram(
                "service.run_seconds", buckets=LATENCY_BUCKETS
            ).observe(time.perf_counter() - t0)
            self._end_run_span(
                tracer,
                state="done",
                served_from=job.served_from,
                warm_hit=warm_hit,
                interrupted=bool(result_doc["interrupted"]),
            )
            self._finish(job, "done")
        except _Interrupted:
            job.state = "interrupted"
            self.metrics.counter("service.jobs.interrupted").inc()
            with self._running_lock:
                self._running.pop(job.id, None)
            store.persist(job)
            self._end_run_span(tracer, state="interrupted")
        except Exception as exc:
            job.error = {
                "code": getattr(exc, "code", type(exc).__name__),
                "message": str(exc),
            }
            self.metrics.counter("service.jobs.failed").inc()
            self._end_run_span(
                tracer, state="failed", error=job.error["code"]
            )
            self._finish(job, "failed")

    def _finish(self, job: Job, state: str) -> None:
        """Make the job's end durable and record its latency.

        Its waiters wake later, in :meth:`_worker_loop`, so its
        metrics are on ``/metrics`` before its reply goes out.
        """
        job.state = state
        job.finished_at = time.time()
        with self._running_lock:
            self._running.pop(job.id, None)
        self.store.persist(job)
        self.store.forget_checkpoint(job)
        wait = job.wait_seconds()
        if wait is not None:
            self.metrics.histogram(
                "service.wait_seconds", buckets=LATENCY_BUCKETS
            ).observe(wait)
        self.metrics.histogram(
            "service.request_seconds", buckets=LATENCY_BUCKETS
        ).observe(job.total_seconds())
