"""Small synchronous client for the scheduling service.

Built on :mod:`http.client` only (no third-party HTTP stack) so the
``repro-emts submit`` CLI and the load-bench harness share one tested
code path.  Errors map to typed exceptions carrying the server's error
code and ``Retry-After`` hint.

Every submission is also where a distributed trace is *born*: unless
the caller minted one, :meth:`ServiceClient.submit` stamps the wire
document with a ``trace`` context whose ids derive from the request's
semantic fields — deterministic, so the same request traces under the
same id on every run, and the server, spool and workers all parent
their spans under it.
"""

from __future__ import annotations

import http.client
import json
import math
import time
from typing import Any

from ..exceptions import ServiceError
from ..obs.trace import derive_span_id, derive_trace_id

__all__ = [
    "ServiceClient",
    "ServiceUnavailable",
    "QueueFullError",
    "JobTimeout",
    "mint_trace_field",
]


def mint_trace_field(request_doc: dict[str, Any]) -> dict[str, str]:
    """A deterministic ``trace`` wire field for one request document.

    Hashes the document's semantic keys (the same set
    :func:`repro.service.protocol.result_key` consumes) — never the
    idempotency key or routing metadata — so retries, requeues and
    same-seed reruns all land under one trace id.  Kept here rather
    than in :mod:`.protocol` so the client needs no request parsing.
    """
    # mirror of protocol.SEMANTIC_KEYS; inlined to keep this module's
    # import graph stdlib-only-shallow for the chaos harness
    semantic = {
        key: request_doc.get(key)
        for key in (
            "ptg",
            "platform",
            "model",
            "algorithm",
            "seed",
            "generations",
            "max_wall_time",
        )
    }
    fingerprint = json.dumps(
        semantic, sort_keys=True, separators=(",", ":"), default=str
    )
    trace_id = derive_trace_id("submit", fingerprint)
    return {
        "trace_id": trace_id,
        "span_id": derive_span_id(trace_id, "request"),
    }


class ServiceUnavailable(ServiceError):
    """Connection refused / 5xx — the daemon is not serving."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(
            message, code="unavailable", status=503, retry_after=retry_after
        )


class QueueFullError(ServiceError):
    """429 backpressure from the daemon."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(
            message, code="queue-full", status=429, retry_after=retry_after
        )


class JobTimeout(ServiceError):
    """The job did not finish within the client's polling budget."""

    def __init__(self, message: str):
        super().__init__(message, code="timeout", status=504)


#: Job states after which a job never changes again.
_TERMINAL = ("done", "failed")


class _Blocking:
    """The blocking calls of both clients, :meth:`wait_for` and
    :meth:`schedule`, written over the subclass's ``submit`` and
    ``get_job`` and its ``_clock`` and ``_sleep`` (injectable on
    :class:`~repro.service.retry.RetryingServiceClient`)."""

    _clock = staticmethod(time.monotonic)
    _sleep = staticmethod(time.sleep)

    def wait_for(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_interval: float = 0.1,
    ) -> dict[str, Any]:
        """Poll until the job reaches a terminal state.

        Raises :class:`JobTimeout` if it is still pending ``timeout``
        seconds from now (exit code 124 in the CLI).
        """
        deadline = self._clock() + float(timeout)
        return self._poll(job_id, deadline, timeout, poll_interval)

    def schedule(
        self,
        request_doc: dict[str, Any],
        timeout: float = 120.0,
        poll_interval: float = 0.1,
    ) -> dict[str, Any]:
        """Submit and block until done, within ``timeout`` seconds in all.

        The server holds the POST for up to 30 s of the budget, and the
        client polls for what is left of it.
        """
        deadline = self._clock() + float(timeout)
        doc = self.submit(request_doc, wait=min(float(timeout), 30.0))
        job = doc.get("job", {})
        if job.get("state") in _TERMINAL:
            return doc
        return self._poll(job["id"], deadline, timeout, poll_interval)

    def _poll(
        self, job_id: str, deadline: float, timeout: float, interval: float
    ) -> dict[str, Any]:
        while True:
            doc = self.get_job(job_id)
            state = doc.get("job", {}).get("state")
            if state in _TERMINAL:
                return doc
            if self._clock() >= deadline:
                raise JobTimeout(
                    f"job {job_id} still {state!r} after {timeout:g}s"
                )
            self._sleep(interval)


class ServiceClient(_Blocking):
    """Talk to one ``repro-emts serve`` daemon."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8787, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            headers = {"Content-Type": "application/json"} if payload else {}
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except (ConnectionError, OSError, http.client.HTTPException) as exc:
                raise ServiceUnavailable(
                    f"cannot reach service at "
                    f"{self.host}:{self.port}: {exc}"
                ) from exc
            resp_headers = {k.lower(): v for k, v in resp.getheaders()}
            try:
                doc = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                doc = {"raw": raw.decode("utf-8", "replace")}
            return resp.status, resp_headers, doc
        finally:
            conn.close()

    @staticmethod
    def _retry_after(headers: dict[str, str]) -> float | None:
        """Parse a ``Retry-After`` header into seconds, defensively.

        The header crosses a trust boundary (any proxy or middlebox can
        rewrite it), so every malformed shape — non-numeric, negative,
        NaN, overflowing to infinity — degrades to ``None`` (no hint)
        rather than surfacing an exception or a nonsense sleep.
        """
        value = headers.get("retry-after")
        if value is None:
            return None
        try:
            seconds = float(value)
        except (TypeError, ValueError, OverflowError):
            return None
        if not math.isfinite(seconds) or seconds < 0:
            return None
        return seconds

    def _raise_for(self, status: int, headers: dict, doc: dict) -> None:
        error = doc.get("error", {}) if isinstance(doc, dict) else {}
        message = error.get("message", f"HTTP {status}")
        if status == 429:
            raise QueueFullError(message, self._retry_after(headers))
        if status == 503:
            raise ServiceUnavailable(message, self._retry_after(headers))
        raise ServiceError(
            message, code=error.get("code", "error"), status=status
        )

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        status, headers, doc = self._request("GET", "/healthz")
        if status != 200:
            self._raise_for(status, headers, doc)
        return doc

    def stats(self) -> dict[str, Any]:
        status, headers, doc = self._request("GET", "/v1/stats")
        if status != 200:
            self._raise_for(status, headers, doc)
        return doc

    def metrics_text(self) -> str:
        status, headers, doc = self._request("GET", "/metrics")
        if status != 200:
            self._raise_for(status, headers, doc)
        return doc.get("raw", "")

    # ------------------------------------------------------------------
    def submit(
        self, request_doc: dict[str, Any], wait: float | None = None
    ) -> dict[str, Any]:
        """POST one scheduling request; returns the job document.

        ``wait`` asks the server to hold the connection until the job
        finishes (bounded); the returned document then carries the
        result inline.  Raises :class:`QueueFullError` on backpressure
        and :class:`ServiceUnavailable` while draining/down.

        A ``trace`` context is minted (deterministically, from the
        semantic fields) unless the document already carries one.
        """
        if "trace" not in request_doc:
            request_doc = dict(request_doc)
            request_doc["trace"] = mint_trace_field(request_doc)
        path = "/v1/jobs"
        if wait is not None:
            path += f"?wait={float(wait)}"
        status, headers, doc = self._request("POST", path, body=request_doc)
        if status in (200, 202):
            return doc
        self._raise_for(status, headers, doc)
        raise AssertionError("unreachable")

    def get_job(self, job_id: str) -> dict[str, Any]:
        status, headers, doc = self._request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            self._raise_for(status, headers, doc)
        return doc
