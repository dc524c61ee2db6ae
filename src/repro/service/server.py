"""The asyncio HTTP/JSON scheduling daemon (``repro-emts serve``).

Architecture
    One asyncio event loop owns the listening socket and a minimal
    HTTP/1.1 keep-alive parser; it never runs EMTS.  Submissions are
    answered straight from the shared result cache when possible;
    everything else is enqueued on the :class:`FairQueue` and executed
    by the :class:`WorkerPool` threads.  The loop and the workers only
    share thread-safe structures (queue, job store, result cache,
    metrics under one lock).

Endpoints
    ``POST /v1/jobs``            submit; ``?wait=SECONDS`` blocks until
    done (or times out back to 202); the reply leaves as soon as the
    worker finishes the job.  Responses: 200 done, 202 queued, 400
    malformed, 429 backpressure (with ``Retry-After``), 503 draining.
    ``GET /v1/jobs/<id>``        poll one job (result inline when done);
    a finished job that left memory is read from the spool log.
    ``GET /v1/jobs``             list the summaries of the jobs in memory:
    every live one and the newest ``result_cache_size`` finished ones.
    ``GET /metrics``             Prometheus text (run + service series).
    ``GET /v1/stats``            JSON snapshot of caches/queue/latency.
    ``GET /healthz``             liveness + drain flag.

Shutdown
    SIGTERM/SIGINT starts a graceful drain: new submissions get 503,
    running EMTS runs stop at their next generation boundary and
    checkpoint via the PR 3 machinery, queued jobs stay spooled, and a
    restarted daemon resumes everything bit-identically.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from pathlib import Path
from typing import Any

from ..exceptions import ServiceError, TraceError
from ..obs import MetricsRegistry
from ..obs.flight import arm_crash_dump, record as flight_record
from ..obs.slo import SLOEngine, default_service_slos
from ..obs.trace import TraceContext, Tracer, derive_span_id
from ..util.crash import crash_point
from .cache import ResultCache
from .jobs import Job, JobStore, new_job_id
from .protocol import (
    json_with,
    parse_request,
    request_trace_context,
    result_key,
)
from .queue import FairQueue
from .worker import LATENCY_BUCKETS, WorkerPool

__all__ = ["SchedulingService", "serve"]

_MAX_BODY = 8 * 1024 * 1024  # generous: inline PTGs are ~KBs
_SERVER_NAME = "repro-emts-service"


def _http_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    reason = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        409: "Conflict",
        413: "Payload Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }.get(status, "OK")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        f"Server: {_SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive",
    ]
    for k, v in (extra_headers or {}).items():
        headers.append(f"{k}: {v}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


def _json_response(
    status: int, doc: Any, extra_headers: dict[str, str] | None = None
) -> bytes:
    return _http_response(
        status,
        (json.dumps(doc) + "\n").encode("utf-8"),
        extra_headers=extra_headers,
    )


def _job_response(status: int, job: Job, deduplicated: bool = False) -> bytes:
    """``_json_response`` of ``{"job", "result", "error", "deduplicated"}``.

    The result goes in as the job's :attr:`~Job.result_json`, the text
    its done record holds, so the same bytes come out without encoding
    the result again.
    """
    encoded = {}
    if job.result is not None:
        encoded["result"] = job.result_json
    if job.error is not None:
        encoded["error"] = json.dumps(job.error)
    if deduplicated:
        encoded["deduplicated"] = "true"
    body = json_with({"job": job.summary()}, **encoded) + "\n"
    return _http_response(status, body.encode("utf-8"))


async def _wait_done(job: Job, timeout: float) -> None:
    """Return once ``job`` is done, or after ``timeout`` seconds.

    The worker thread that finishes the job completes a future on this
    loop through ``call_soon_threadsafe``: the reply leaves at once,
    with no polling.
    """
    loop = asyncio.get_running_loop()
    done = loop.create_future()

    def resolve() -> None:
        if not done.done():
            done.set_result(None)

    def wake() -> None:
        try:
            loop.call_soon_threadsafe(resolve)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    job.add_done_callback(wake)
    try:
        await asyncio.wait((done,), timeout=timeout)
    finally:
        job.remove_done_callback(wake)


def _error_response(exc: ServiceError) -> bytes:
    headers = {}
    if exc.retry_after is not None:
        headers["Retry-After"] = str(max(1, int(round(exc.retry_after))))
    return _json_response(
        exc.status,
        {"error": {"code": exc.code, "message": str(exc)}},
        extra_headers=headers,
    )


class SchedulingService:
    """Wires queue, store, caches, workers and the HTTP front-end."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        spool: str | None = None,
        queue_limit: int = 256,
        tenant_quota: int = 64,
        result_cache_size: int = 256,
        warm_max_problems: int = 32,
        retry_after: float = 1.0,
        trace_dir: str | None = None,
        slo_interval: float = 1.0,
    ) -> None:
        self.host = host
        self.port = port
        self.metrics = MetricsRegistry()
        self.store = JobStore(spool, max_finished=result_cache_size)
        self.queue = FairQueue(
            max_depth=queue_limit,
            tenant_quota=tenant_quota,
            retry_after=retry_after,
            metrics=self.metrics,
        )
        self.result_cache = ResultCache(result_cache_size)
        self.trace_dir = (
            Path(trace_dir) if trace_dir is not None else None
        )
        # the front-end's own shard: append-mode so ``request`` events
        # from every daemon generation share one file across restarts
        self.tracer = (
            Tracer(self.trace_dir / "server.jsonl", append=True)
            if self.trace_dir is not None
            else None
        )
        self.pool = WorkerPool(
            self.queue,
            self.store,
            self.result_cache,
            workers=workers,
            metrics=self.metrics,
            warm_max_problems=warm_max_problems,
            trace_dir=trace_dir,
        )
        self.slo = SLOEngine(default_service_slos())
        self.slo_interval = float(slo_interval)
        if spool is not None:
            # on any crash-point exit the in-memory flight ring lands
            # next to the spool for the postmortem
            arm_crash_dump(Path(spool) / "flight")
        self.draining = False
        self.started_at = time.time()
        self._server: asyncio.AbstractServer | None = None
        self._drained = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self.bound_port: int | None = None

    # ------------------------------------------------------------------
    def recover_spool(self) -> int:
        """Re-enqueue unfinished jobs left behind by a previous daemon.

        They were admitted before the restart, so the queue's limits
        do not refuse them; they count against those limits until they
        drain.
        """
        pending = self.store.recover()
        if self.store.quarantined:
            self.metrics.counter(
                "service.spool.quarantined",
                help="corrupt spool records moved to quarantine",
            ).inc(len(self.store.quarantined))
        for job in pending:
            self.queue.restore(
                job,
                tenant=job.request.tenant,
                priority=job.request.priority,
            )
            job.state = "queued"
            self.store.persist(job)
        return len(pending)

    # -- tracing -------------------------------------------------------
    def _trace_request(
        self, request, outcome: str, status: int
    ) -> None:
        """Stamp one ``request`` event into the server shard.

        Each event carries an explicit ctx: a span derived from the
        request's root context plus the shard's next file-local id —
        unique across daemon restarts (append mode resumes ids), while
        the *structure* (one request child under the root, in emission
        order) stays deterministic for same-seed runs.  Tracing must
        never fail a submission, so trace-file trouble is swallowed.
        """
        if self.tracer is None:
            return
        root = request_trace_context(request)
        span = derive_span_id(
            root.trace_id,
            f"{root.span_id}/http-{self.tracer.next_span}",
        )
        try:
            self.tracer.event(
                "request",
                attrs={
                    "outcome": outcome,
                    "status": status,
                    "tenant": request.tenant,
                    "priority": request.priority,
                },
                ctx=TraceContext(
                    trace_id=root.trace_id,
                    span_id=span,
                    parent_id=root.span_id,
                ),
            )
        except TraceError:  # pragma: no cover - disk trouble
            pass

    # -- submission ----------------------------------------------------
    def submit(self, doc: Any) -> tuple[int, bool, Job]:
        """Handle one POST body; returns (status, deduplicated, job).

        A refusal (429 backpressure, 503 drain) comes before any job is
        registered or written, so a retry under the same idempotency
        key is a new submission, not a dedupe into a refused one.
        """
        request = parse_request(doc)
        self.metrics.counter("service.jobs.submitted").inc()
        if self.draining:
            self._trace_request(request, "rejected", 503)
            raise ServiceError(
                "service is draining; not accepting new jobs",
                code="draining",
                status=503,
                retry_after=self.queue.retry_after,
            )
        # idempotent resubmission: a retried POST (same client-supplied
        # key) returns the ORIGINAL job — whatever state it is in —
        # instead of enqueuing a twin.  Checked before the result cache
        # so the client always gets back the job id it first created.
        original = self.store.find_idempotent(request.idempotency_key)
        if original is not None:
            if original.key != result_key(request):
                self._trace_request(request, "rejected", 409)
                raise ServiceError(
                    f"idempotency key "
                    f"{request.idempotency_key!r} was already used "
                    f"for a different request",
                    code="idempotency-mismatch",
                    status=409,
                )
            self.metrics.counter(
                "service.jobs.deduplicated",
                help="submissions answered by an existing job "
                "via idempotency key",
            ).inc()
            status = 200 if original.done_event.is_set() else 202
            self._trace_request(request, "deduplicated", status)
            return status, True, original
        key = result_key(request)
        cached = self.result_cache.get(key)
        if cached is not None:
            # answered on the event loop: no queue, no worker, no run;
            # the job's one record, already done, precedes the reply
            job = Job(
                id=new_job_id(),
                request=request,
                state="done",
                submitted_at=time.time(),
                served_from="result-cache",
                key=key,
            )
            job.started_at = job.submitted_at
            job.set_result(*cached)
            job.finished_at = time.time()
            self.store.add(job)
            total = job.finished_at - job.submitted_at
            self.metrics.counter("service.jobs.completed").inc()
            self.metrics.counter("service.jobs.served_from_cache").inc()
            self.metrics.histogram(
                "service.request_seconds", buckets=LATENCY_BUCKETS
            ).observe(total)
            self.store.finish(job)
            self._trace_request(request, "result-cache", 200)
            return 200, False, job
        try:
            self.queue.reserve(request.tenant)
        except ServiceError as exc:
            self.metrics.counter("service.jobs.rejected").inc()
            self._trace_request(request, "rejected", exc.status)
            flight_record(
                "server", "submission rejected", tenant=request.tenant
            )
            raise
        try:
            job = self.store.create(request, key)
        except BaseException:
            self.queue.release(request.tenant)
            raise
        self.queue.fill(
            job, tenant=request.tenant, priority=request.priority
        )
        self._trace_request(request, "accepted", 202)
        # the job is durable and queued but the 202 has not been sent:
        # dying here is the "ack lost" half of exactly-once, which the
        # idempotency index turns into a dedupe on the client's retry
        crash_point("post-enqueue")
        return 202, False, job

    # -- introspection -------------------------------------------------
    def sample_slo(self) -> list[dict[str, Any]]:
        """Feed the SLO engine one metrics snapshot; return the report.

        Called by the background sampler on a cadence and by ``stats``
        / ``metrics`` on demand, so a fresh daemon answers with current
        numbers before the first tick.
        """
        self.slo.observe(self.metrics.snapshot())
        return self.slo.report()

    def stats(self) -> dict[str, Any]:
        slo_report = self.sample_slo()
        p50 = p99 = 0.0
        hist = self.metrics.get("service.request_seconds")
        if hist is not None:
            p50 = hist.quantile(0.5)
            p99 = hist.quantile(0.99)
        return {
            "uptime_seconds": time.time() - self.started_at,
            "draining": self.draining,
            "queue": {
                "depth": self.queue.depth,
                "max_depth": self.queue.max_depth,
                "tenant_quota": self.queue.tenant_quota,
            },
            "jobs": len(self.store),
            "running": len(self.pool.running_jobs()),
            "result_cache": self.result_cache.snapshot(),
            "latency": {"p50_seconds": p50, "p99_seconds": p99},
            "slo": slo_report,
        }

    def render_metrics(self) -> str:
        slo_report = self.sample_slo()
        self.metrics.gauge(
            "service.queue.depth",
            help="jobs currently queued",
        ).set(self.queue.depth)
        self.metrics.gauge(
            "service.jobs.running",
            help="jobs currently executing",
        ).set(len(self.pool.running_jobs()))
        for row in slo_report:
            prefix = f"slo.{row['name']}"
            self.metrics.gauge(
                f"{prefix}.compliance",
                help=row["description"],
            ).set(row["compliance"])
            self.metrics.gauge(
                f"{prefix}.budget_remaining",
                help="fraction of the error budget left",
            ).set(row["budget_remaining"])
            self.metrics.gauge(
                f"{prefix}.alerting",
                help="1 while every burn window exceeds the "
                "alert threshold",
            ).set(1.0 if row["alerting"] else 0.0)
            for window, burn in row["burn_rates"].items():
                self.metrics.gauge(
                    f"{prefix}.burn.{window}",
                    help="error-budget burn rate over the window",
                ).set(burn)
        return self.metrics.render_prometheus()

    # -- HTTP ----------------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader):
        header = await reader.readuntil(b"\r\n\r\n")
        head, _, _ = header.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise ServiceError(
                "malformed request line", code="bad-request", status=400
            ) from None
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ServiceError(
                f"malformed Content-Length {raw_length!r}",
                code="bad-request",
                status=400,
            )
        length = int(raw_length)
        if length > _MAX_BODY:
            raise ServiceError(
                f"request body too large ({length} bytes)",
                code="too-large",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    method, target, headers, body = (
                        await self._read_request(reader)
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionError,
                ):
                    break
                except ServiceError as exc:
                    writer.write(_error_response(exc))
                    await writer.drain()
                    break
                response = await self._route(method, target, body)
                writer.write(response)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(self, method: str, target: str, body: bytes) -> bytes:
        path, _, query = target.partition("?")
        params = {}
        for pair in query.split("&"):
            if "=" in pair:
                k, _, v = pair.partition("=")
                params[k] = v
        try:
            if method == "POST" and path == "/v1/jobs":
                return await self._post_job(body, params)
            if method == "GET" and path.startswith("/v1/jobs/"):
                return self._get_job(path[len("/v1/jobs/"):])
            if method == "GET" and path == "/v1/jobs":
                return _json_response(
                    200,
                    {"jobs": [j.summary() for j in self.store.jobs()]},
                )
            if method == "GET" and path == "/v1/stats":
                return _json_response(200, self.stats())
            if method == "GET" and path == "/metrics":
                return _http_response(
                    200,
                    self.render_metrics().encode("utf-8"),
                    content_type="text/plain; version=0.0.4",
                )
            if method == "GET" and path == "/healthz":
                return _json_response(
                    200 if not self.draining else 503,
                    {"status": "draining" if self.draining else "ok"},
                )
            return _json_response(
                404,
                {
                    "error": {
                        "code": "not-found",
                        "message": f"no route for {method} {path}",
                    }
                },
            )
        except ServiceError as exc:
            return _error_response(exc)
        except Exception as exc:  # pragma: no cover - defensive
            return _json_response(
                500,
                {"error": {"code": "internal", "message": str(exc)}},
            )

    async def _post_job(self, body: bytes, params: dict) -> bytes:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}",
                code="bad-request",
                status=400,
            ) from None
        status, deduplicated, job = self.submit(doc)
        wait = params.get("wait")
        if status == 202 and wait is not None:
            try:
                budget = min(float(wait), 600.0)
            except ValueError:
                budget = 0.0
            if budget > 0:  # False for NaN too
                await _wait_done(job, budget)
            if job.done_event.is_set():
                status = 200
        return _job_response(status, job, deduplicated)

    def _get_job(self, job_id: str) -> bytes:
        job = self.store.get(job_id)
        if job is None:
            return _json_response(
                404,
                {
                    "error": {
                        "code": "unknown-job",
                        "message": f"no job {job_id!r}",
                    }
                },
            )
        return _job_response(200, job)

    # -- lifecycle -----------------------------------------------------
    async def _slo_sampler(self) -> None:
        """Feed the SLO engine on a cadence until the drain completes."""
        try:
            while not self._drained.is_set():
                self.sample_slo()
                await asyncio.sleep(self.slo_interval)
        except asyncio.CancelledError:  # pragma: no cover - shutdown
            pass

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        recovered = self.recover_spool()
        flight_record(
            "server", "daemon starting", recovered=recovered
        )
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._slo_task = asyncio.ensure_future(self._slo_sampler())
        if recovered:
            print(f"recovered {recovered} unfinished job(s) from spool")
        print(
            f"repro-emts service listening on "
            f"http://{self.host}:{self.bound_port}",
            flush=True,
        )

    def initiate_drain(self) -> None:
        if self.draining:
            return
        self.draining = True
        print("drain requested: finishing in-flight work", flush=True)
        flight_record(
            "server",
            "drain requested",
            queued=self.queue.depth,
            running=len(self.pool.running_jobs()),
        )
        if self.tracer is not None:
            try:
                # context-free by design: a drain belongs to the daemon,
                # not to any one request's tree
                self.tracer.event(
                    "drain",
                    attrs={
                        "queued": self.queue.depth,
                        "running": len(self.pool.running_jobs()),
                    },
                )
            except TraceError:  # pragma: no cover - disk trouble
                pass
        self.pool.initiate_drain()
        # stop events are set but nothing has checkpointed or joined
        # yet: dying here models SIGKILL landing mid-graceful-shutdown
        crash_point("mid-drain")

        async def _finish() -> None:
            # workers stop at the next generation boundary; join them
            # off-loop so the event loop keeps answering polls
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.stop
            )
            self._drained.set()

        asyncio.ensure_future(_finish())

    def request_drain(self) -> None:
        """Thread-safe drain trigger (tests, embedding harnesses)."""
        assert self._loop is not None, "service not started"
        self._loop.call_soon_threadsafe(self.initiate_drain)

    async def serve_until_drained(self) -> None:
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.initiate_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / exotic platform
        await self._drained.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        if self.tracer is not None:
            self.tracer.close()
        self.store.close()
        print("drain complete; daemon exiting", flush=True)


def serve(**kwargs) -> int:
    """Blocking entry point used by ``repro-emts serve``."""
    service = SchedulingService(**kwargs)
    try:
        asyncio.run(service.serve_until_drained())
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    return 0
