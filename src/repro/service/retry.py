"""Resilient client: declarative retries + idempotent submission.

:class:`ServiceClient` is deliberately dumb — one request, one typed
exception.  This module wraps it with the two things a client facing a
crashy network and a crashy daemon actually needs:

* :class:`RetryPolicy` — a declarative description of *how* to retry:
  capped decorrelated-jitter exponential backoff
  (:func:`repro.util.backoff.decorrelated_jitter`), a server
  ``Retry-After`` hint treated as a floor, an overall wall-clock
  deadline, and a **typed ledger** of which exceptions are retry-safe
  (connection failures and backpressure are; 4xx rejections and
  mismatches are not).

* :class:`RetryingServiceClient` — wraps a :class:`ServiceClient` and
  makes every ``submit`` carry a client-generated **idempotency key**.
  That key is what turns blind retries into exactly-once submission:
  after an ambiguous failure (the connection died after the POST
  landed) the retried POST finds the original job on the server and
  returns it, instead of enqueuing a twin that would burn a worker on
  duplicate side effects.

The retry loop never retries a request the ledger marks unsafe, and it
re-raises the *last* typed error once attempts or the deadline run
out, so callers keep the exact exception contract of the plain client.
"""

from __future__ import annotations

import random
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable

from ..exceptions import ServiceError
from ..util.backoff import decorrelated_jitter
from .client import (
    JobTimeout,
    QueueFullError,
    ServiceClient,
    ServiceUnavailable,
    _Blocking,
    mint_trace_field,
)

__all__ = [
    "RetryPolicy",
    "RetryingServiceClient",
    "RetryStats",
    "new_idempotency_key",
    "DEFAULT_RETRY_LEDGER",
]

#: The typed ledger of retry safety.  Most-derived match wins (the
#: policy walks each exception's MRO), so ``ServiceUnavailable`` is
#: retried even though its base ``ServiceError`` is not: a 400/404/409
#: means the request itself is wrong and retrying cannot fix it, while
#: unavailability and backpressure are exactly the transients retries
#: exist for.  ``JobTimeout`` is terminal — the polling budget is the
#: caller's, not the transport's.
DEFAULT_RETRY_LEDGER: tuple[tuple[type[Exception], bool], ...] = (
    (ServiceUnavailable, True),
    (QueueFullError, True),
    (JobTimeout, False),
    (ServiceError, False),
    (ConnectionError, True),
    (OSError, True),
)


def new_idempotency_key() -> str:
    """A fresh client-side submission identity (``idem-`` + 32 hex)."""
    return f"idem-{uuid.uuid4().hex}"


@dataclass
class RetryStats:
    """What the retry loop actually did (exposed for tests/benches)."""

    attempts: int = 0
    retries: int = 0
    slept_seconds: float = 0.0
    deduplicated: int = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "slept_seconds": self.slept_seconds,
            "deduplicated": self.deduplicated,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry behaviour for :class:`RetryingServiceClient`.

    Attributes
    ----------
    max_attempts:
        Total tries per logical request (first call included).
    base / cap:
        Decorrelated-jitter backoff bounds, seconds: every sleep is
        drawn from ``[base, 3 * previous]`` and clamped to ``cap``.
    deadline:
        Overall wall-clock budget for one logical request, including
        sleeps.  When the next sleep would cross it, the last typed
        error is re-raised instead.  ``None`` disables the deadline.
    honor_retry_after:
        Treat a server ``Retry-After`` hint as a *floor* for the next
        sleep (still capped by ``cap`` and the deadline): a polite
        client never comes back earlier than it was asked to.
    ledger:
        ``(exception type, retry-safe?)`` pairs; the most-derived
        match along the raised exception's MRO decides.  Unlisted
        exceptions are never retried.
    seed:
        Seed of the jitter stream — set it to make a retry schedule
        reproducible in tests; ``None`` gives each client fresh
        entropy (the production default: herds must *not* share
        schedules).
    """

    max_attempts: int = 6
    base: float = 0.05
    cap: float = 2.0
    deadline: float | None = 60.0
    honor_retry_after: bool = True
    ledger: tuple[tuple[type[Exception], bool], ...] = field(
        default=DEFAULT_RETRY_LEDGER
    )
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base < 0:
            raise ValueError(f"base must be >= 0, got {self.base}")
        if self.cap < self.base:
            raise ValueError(
                f"cap must be >= base, "
                f"got cap={self.cap} base={self.base}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be > 0 or None, got {self.deadline}"
            )

    # ------------------------------------------------------------------
    def retryable(self, exc: BaseException) -> bool:
        """Consult the ledger: is retrying this failure safe?"""
        for klass in type(exc).__mro__:
            for entry, safe in self.ledger:
                if klass is entry:
                    return safe
        return False

    def next_delay(
        self,
        rng: random.Random,
        previous: float,
        retry_after: float | None,
    ) -> float:
        """The sleep before the next attempt."""
        delay = decorrelated_jitter(rng, previous, self.base, self.cap)
        if self.honor_retry_after and retry_after is not None:
            delay = max(delay, min(float(retry_after), self.cap))
        return delay


class RetryingServiceClient(_Blocking):
    """A :class:`ServiceClient` that survives transient failure.

    Every ``submit`` injects an idempotency key (unless the request
    document already carries one), so the retry loop can safely re-POST
    after ambiguous failures: the server answers a duplicate key with
    the original job.  GETs (``get_job``, ``healthz``, ``stats``) are
    idempotent by nature and retried without ceremony, so each poll of
    ``wait_for`` and ``schedule`` (the loop the plain client runs) is
    retried too.

    ``sleep`` and ``clock`` are injectable for tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        timeout: float = 30.0,
        *,
        policy: RetryPolicy | None = None,
        client: ServiceClient | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.inner = (
            client
            if client is not None
            else ServiceClient(host, port, timeout=timeout)
        )
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = RetryStats()
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(self.policy.seed)

    # ------------------------------------------------------------------
    def _with_retry(self, call: Callable[[], Any]) -> Any:
        policy = self.policy
        deadline = (
            self._clock() + policy.deadline
            if policy.deadline is not None
            else None
        )
        previous = policy.base
        attempt = 0
        while True:
            attempt += 1
            self.stats.attempts += 1
            try:
                return call()
            except Exception as exc:
                if not policy.retryable(exc):
                    raise
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.next_delay(
                    self._rng,
                    previous,
                    getattr(exc, "retry_after", None),
                )
                if (
                    deadline is not None
                    and self._clock() + delay > deadline
                ):
                    raise
                previous = delay
                self.stats.retries += 1
                self.stats.slept_seconds += delay
                if delay > 0:
                    self._sleep(delay)

    # ------------------------------------------------------------------
    def submit(
        self, request_doc: dict[str, Any], wait: float | None = None
    ) -> dict[str, Any]:
        """POST one scheduling request, retrying safely.

        The injected idempotency key makes the POST re-sendable: if an
        earlier attempt landed before its connection died, the server
        returns the original job (``"deduplicated": true``) instead of
        creating a twin.  The trace context is minted once, before the
        retry loop, so every re-POST carries the *same* ids and the
        assembled trace shows the whole attempt chain as one request.
        """
        doc = dict(request_doc)
        if not doc.get("idempotency_key"):
            doc["idempotency_key"] = new_idempotency_key()
        if "trace" not in doc:
            doc["trace"] = mint_trace_field(doc)
        result = self._with_retry(
            lambda: self.inner.submit(doc, wait=wait)
        )
        if result.get("deduplicated"):
            self.stats.deduplicated += 1
        return result

    def get_job(self, job_id: str) -> dict[str, Any]:
        return self._with_retry(lambda: self.inner.get_job(job_id))

    def healthz(self) -> dict[str, Any]:
        return self._with_retry(self.inner.healthz)

    def stats_doc(self) -> dict[str, Any]:
        """The daemon's ``/v1/stats`` snapshot (retried)."""
        return self._with_retry(self.inner.stats)
