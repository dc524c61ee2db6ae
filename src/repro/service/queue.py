"""Priority job queue with per-tenant fairness and backpressure.

Ordering
    Jobs are drained highest *priority* first.  Within one priority
    level tenants take strict round-robin turns (a tenant that floods
    the queue cannot starve the others); within one tenant jobs stay
    FIFO.

Backpressure
    ``put`` rejects once the global depth limit or the submitting
    tenant's quota is reached, raising :class:`QueueFull` — the server
    turns that into ``429 Too Many Requests`` with a ``Retry-After``
    hint so well-behaved clients back off instead of hammering.
    ``reserve`` takes the same decision before the job exists: the
    server refuses a submission before it registers or writes a job,
    and hands the job to the held slot with ``fill``.

The queue is a plain thread-safe structure (condition variable, no
asyncio): the event loop ``put``\\ s from coroutines (non-blocking) and
worker threads block in ``get``.

Pressure visibility
    Given a metrics registry, every put/get samples the
    ``service.queue.depth`` gauge and every get observes the dequeued
    job's residency in a per-priority-lane
    ``service.queue.wait_seconds.p<N>`` histogram — queue pressure
    shows up on ``/metrics`` while it builds, not only once 429s fire.
    All observations happen *outside* the queue lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Any

from ..exceptions import ServiceError

__all__ = ["FairQueue", "QueueFull", "QUEUE_WAIT_BUCKETS"]

DEFAULT_MAX_DEPTH = 256
DEFAULT_TENANT_QUOTA = 64

#: Queue-residency buckets (seconds): finer than the request-latency
#: buckets at the low end because healthy queue waits are milliseconds
#: and the interesting signal is the climb through 10-100 ms.
QUEUE_WAIT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


class QueueFull(ServiceError):
    """The queue (or one tenant's quota slice) is at capacity."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(
            message,
            code="queue-full",
            status=429,
            retry_after=retry_after,
        )


class FairQueue:
    """Bounded priority queue, round-robin fair across tenants."""

    def __init__(
        self,
        max_depth: int = DEFAULT_MAX_DEPTH,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        retry_after: float = 1.0,
        *,
        metrics: Any | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if tenant_quota < 1:
            raise ValueError(
                f"tenant_quota must be >= 1, got {tenant_quota}"
            )
        self.max_depth = int(max_depth)
        self.tenant_quota = int(tenant_quota)
        self.retry_after = float(retry_after)
        self.metrics = metrics
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # priority -> tenant -> FIFO of (job, enqueued_at) pairs;
        # tenants kept in insertion order and rotated on each take for
        # round-robin fairness
        self._lanes: dict[int, OrderedDict[str, deque]] = {}
        # both count queued jobs plus reserved slots; ``_ready`` only
        # the queued jobs a ``get`` can take
        self._tenant_depth: dict[str, int] = {}
        self._depth = 0
        self._ready = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _sample_depth(self, depth: int) -> None:
        """Update the depth gauge (called with the queue lock RELEASED)."""
        if self.metrics is None:
            return
        self.metrics.gauge(
            "service.queue.depth", help="jobs currently queued"
        ).set(depth)

    def _observe_wait(self, priority: int, wait: float) -> None:
        """Record one dequeued job's lane residency (lock RELEASED)."""
        if self.metrics is None:
            return
        self.metrics.histogram(
            f"service.queue.wait_seconds.p{int(priority)}",
            buckets=QUEUE_WAIT_BUCKETS,
            help="queue residency per priority lane",
        ).observe(max(0.0, wait))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return self._depth

    @property
    def depth(self) -> int:
        return len(self)

    def tenant_depth(self, tenant: str) -> int:
        with self._lock:
            return self._tenant_depth.get(tenant, 0)

    # ------------------------------------------------------------------
    def put(self, job: Any, *, tenant: str, priority: int = 0) -> None:
        """Enqueue ``job``; raises :class:`QueueFull` on backpressure."""
        self.reserve(tenant)
        self.fill(job, tenant=tenant, priority=priority)

    def reserve(self, tenant: str) -> None:
        """Hold one slot for a job of ``tenant`` that is not made yet.

        Raises as :meth:`put` would.  The slot counts against the depth
        limit and the tenant's quota until :meth:`fill` puts a job in
        it or :meth:`release` gives it back.
        """
        with self._lock:
            if self._closed:
                raise ServiceError(
                    "service is draining; not accepting new jobs",
                    code="draining",
                    status=503,
                    retry_after=self.retry_after,
                )
            if self._depth >= self.max_depth:
                raise QueueFull(
                    f"queue is full ({self._depth}/{self.max_depth} jobs)",
                    retry_after=self.retry_after,
                )
            held = self._tenant_depth.get(tenant, 0)
            if held >= self.tenant_quota:
                raise QueueFull(
                    f"tenant {tenant!r} is at its quota "
                    f"({held}/{self.tenant_quota} queued jobs)",
                    retry_after=self.retry_after,
                )
            self._tenant_depth[tenant] = held + 1
            self._depth += 1

    def restore(self, job: Any, *, tenant: str, priority: int = 0) -> None:
        """Enqueue a job admitted before a restart, past the limits.

        It was acked once, so it is never refused; it counts against
        the depth limit and the tenant's quota like any queued job, so
        new submissions are refused until the backlog drains.
        """
        with self._lock:
            self._tenant_depth[tenant] = self._tenant_depth.get(tenant, 0) + 1
            self._depth += 1
        self.fill(job, tenant=tenant, priority=priority)

    def fill(self, job: Any, *, tenant: str, priority: int = 0) -> None:
        """Enqueue ``job`` in a slot :meth:`reserve` held for ``tenant``."""
        with self._lock:
            lanes = self._lanes.setdefault(int(priority), OrderedDict())
            lanes.setdefault(tenant, deque()).append(
                (job, time.monotonic())
            )
            self._ready += 1
            depth = self._depth
            self._not_empty.notify()
        self._sample_depth(depth)

    def release(self, tenant: str) -> None:
        """Give back a slot :meth:`reserve` held that stays unfilled."""
        with self._lock:
            self._leave_locked(tenant)

    def _leave_locked(self, tenant: str) -> None:
        held = self._tenant_depth[tenant] - 1
        if held:
            self._tenant_depth[tenant] = held
        else:
            del self._tenant_depth[tenant]
        self._depth -= 1

    # ------------------------------------------------------------------
    def get(self, timeout: float | None = None) -> Any | None:
        """Dequeue the next job, or ``None`` after ``timeout`` seconds."""
        with self._not_empty:
            if self._ready == 0 and not self._not_empty.wait_for(
                lambda: self._ready > 0, timeout=timeout
            ):
                return None
            job, enqueued_at, priority = self._take_locked()
            depth = self._depth
        self._observe_wait(priority, time.monotonic() - enqueued_at)
        self._sample_depth(depth)
        return job

    def _take_locked(self) -> tuple[Any, float, int]:
        priority = max(self._lanes)
        lanes = self._lanes[priority]
        # head tenant takes its turn, then moves to the back of the ring
        tenant, fifo = next(iter(lanes.items()))
        job, enqueued_at = fifo.popleft()
        if fifo:
            lanes.move_to_end(tenant)
        else:
            del lanes[tenant]
        if not lanes:
            del self._lanes[priority]
        self._ready -= 1
        self._leave_locked(tenant)
        return job, enqueued_at, priority

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting new jobs (drain mode); ``get`` still works."""
        with self._lock:
            self._closed = True

    def drain_remaining(self) -> list[Any]:
        """Remove and return every queued job (used at shutdown)."""
        out = []
        with self._lock:
            while self._ready:
                out.append(self._take_locked()[0])
        return out
