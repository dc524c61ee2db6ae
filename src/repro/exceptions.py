"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause
while still being able to distinguish graph problems from scheduling
problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "ValidationError",
    "PlatformError",
    "AllocationError",
    "ScheduleError",
    "VerificationError",
    "SimulationError",
    "ModelError",
    "TimeModelError",
    "ConfigurationError",
    "CheckpointError",
    "CampaignError",
    "TraceError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """A parallel task graph is structurally invalid."""


class CycleError(GraphError):
    """A task graph contains a dependency cycle (must be a DAG)."""


class ValidationError(ReproError):
    """An object failed an internal consistency check."""


class PlatformError(ReproError):
    """A platform description is invalid (e.g. non-positive speed)."""


class AllocationError(ReproError):
    """A processor-allocation vector is invalid for a PTG/platform pair."""


class ScheduleError(ReproError):
    """A schedule violates precedence or resource constraints."""


class VerificationError(ScheduleError):
    """A schedule failed independent verification.

    Raised by :class:`repro.verify.ScheduleVerifier` (and the
    differential replay built on it) when a schedule violates one of the
    invariants every valid mixed-parallel schedule must satisfy, or when
    two scheduling engines disagree about the same allocation.

    ``kind`` is a stable machine-checkable tag naming the violated
    invariant (``"overlap"``, ``"precedence"``, ``"wrong-duration"``,
    ``"allocation-range"``, ``"non-finite"``, ``"makespan-mismatch"``,
    ``"engine-divergence"``, ...); ``task`` and ``processor`` carry the
    offending indices when the violation is localized.
    """

    def __init__(
        self,
        message: str,
        kind: str = "invalid",
        task: int | None = None,
        processor: int | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.task = task
        self.processor = processor


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistency.

    Raised by :func:`repro.simulator.simulate` (and the online runtime
    built on top of it) when a replayed schedule violates precedence,
    exclusivity or duration consistency.  The structured fields make a
    divergence actionable without parsing the message: ``task`` is the
    offending task index, ``processors`` the processor set involved and
    ``time`` the simulated instant at which the violation was observed.
    """

    def __init__(
        self,
        message: str,
        task: int | None = None,
        processors: tuple[int, ...] | None = None,
        time: float | None = None,
    ) -> None:
        super().__init__(message)
        self.task = task
        self.processors = (
            None
            if processors is None
            else tuple(int(p) for p in processors)
        )
        self.time = None if time is None else float(time)


class ModelError(ReproError):
    """An execution-time model received invalid parameters."""


class TimeModelError(ModelError):
    """An execution-time model produced an unusable prediction.

    Raised when a model yields a NaN, infinite, or non-positive
    ``T(v, p)`` — values that would otherwise silently propagate into
    makespans and corrupt every downstream comparison.  ``task`` names
    the offending task, ``p`` the processor count and ``model`` the
    model that produced the value.
    """

    def __init__(
        self,
        message: str,
        task: str | None = None,
        p: int | None = None,
        model: str | None = None,
    ) -> None:
        super().__init__(message)
        self.task = task
        self.p = p
        self.model = model


class ConfigurationError(ReproError):
    """An algorithm configuration is invalid (e.g. mu <= 0)."""


class CheckpointError(ReproError):
    """A run checkpoint could not be written, read, or resumed from.

    Covers I/O failures, corrupted or truncated checkpoint files,
    unsupported format versions, and attempts to resume a checkpoint
    against a different problem or algorithm configuration than the one
    that produced it.
    """


class CampaignError(ReproError):
    """An experiment campaign is misconfigured or its state is unusable.

    Covers invalid trial specifications (duplicate or unsafe keys,
    results that cannot be serialized) and attempts to resume a campaign
    directory that belongs to a different campaign.
    """


class TraceError(ReproError):
    """A run trace could not be written, read, or understood.

    Covers I/O failures while writing trace events, truncated or
    corrupt JSONL trace files, unsupported schema versions, and events
    that violate the documented :class:`repro.obs.TraceEvent` schema.
    The message always names the offending file (and line, when one is
    identifiable).
    """


class ServiceError(ReproError):
    """A scheduling-service request could not be served.

    ``status`` is the HTTP status the daemon maps the error to and
    ``code`` a stable machine-checkable tag (``"bad-request"``,
    ``"queue-full"``, ``"quota-exceeded"``, ``"not-found"``,
    ``"draining"``, ...) so clients can branch without parsing the
    human-readable message.  ``retry_after`` carries the backpressure
    hint (seconds) that becomes the ``Retry-After`` header on 429/503
    responses.
    """

    def __init__(
        self,
        message: str,
        code: str = "bad-request",
        status: int = 400,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = int(status)
        self.retry_after = retry_after
