"""Independent schedule verification (:mod:`repro.verify`).

Public API:

* :class:`ScheduleVerifier` / :class:`VerificationReport` — check every
  structural invariant of a built :class:`~repro.mapping.Schedule`
  (precedence with exact durations, processor exclusivity, allocation
  sanity, finite times, makespan consistency) with a stable ``kind`` tag
  per violation (:data:`VIOLATION_KINDS`).  The invariants are checked
  over numpy arrays, one pass per invariant group, with no code shared
  with the scheduling engines they check.
* :func:`differential_check` / :class:`DifferentialReport` — replay one
  allocation through every available scheduling engine (native C loop,
  reference mapper, discrete-event simulator) and fail loudly the
  moment any two disagree.
* :class:`VerifyingEvaluator` — wrap a fitness evaluator so its results
  are verified online, in ``"sample"`` or ``"full"`` mode
  (:data:`VERIFY_MODES`).
"""

from __future__ import annotations

from .._lazy import lazy_namespace

__all__ = [
    "ScheduleVerifier",
    "VerificationReport",
    "VIOLATION_KINDS",
    "differential_check",
    "DifferentialReport",
    "VerifyingEvaluator",
    "VERIFY_MODES",
    "DEFAULT_SAMPLE_INTERVAL",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".differential": ("DifferentialReport", "differential_check"),
        ".evaluator": (
            "DEFAULT_SAMPLE_INTERVAL",
            "VERIFY_MODES",
            "VerifyingEvaluator",
        ),
        ".verifier": (
            "VIOLATION_KINDS",
            "ScheduleVerifier",
            "VerificationReport",
        ),
    },
)
