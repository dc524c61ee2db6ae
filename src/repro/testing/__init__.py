"""Fault-injection utilities for exercising the resilient EMTS stack.

The production claim of the fault-tolerant EMTS stack — interrupts,
slow batches and bad fitness values never change the optimization
outcome silently — is only as good as the harness that attacks it.
:mod:`repro.testing.chaos` wraps any fitness evaluator with a
deterministic fault schedule (raised exceptions, NaN or corrupted
fitness, delays, stragglers, stop events).

:mod:`repro.testing.chaos_service` raises the attack one layer: a
fault-injecting TCP proxy between client and daemon (drops, resets
after the request landed, truncated responses, delays), deterministic
spool-log corruptors and readers, and a subprocess harness for kill-restart
recovery tests with named crash points.

:class:`repro.testing.unbounded.Unbounded` drops the rejection bound
from an evaluator: the reference run that a bounded one must match.

Deliberately dependency-free and deterministic: every fault fires at a
planned batch index or connection ordinal, so a chaos test is exactly
reproducible.
"""

from .._lazy import lazy_namespace

__all__ = [
    "ChaosError",
    "ChaosPlan",
    "ChaosEvaluator",
    "sample_indices",
    "ProxyPlan",
    "ChaosProxy",
    "corrupt_record",
    "CORRUPTION_MODES",
    "ServiceDaemon",
    "DaemonStartupError",
    "spool_frames",
    "spool_ids_per_key",
    "spool_job_ids",
    "spool_record",
    "quarantined_files",
    "Unbounded",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".._rng": ("sample_indices",),
        ".chaos": ("ChaosError", "ChaosEvaluator", "ChaosPlan"),
        ".chaos_service": (
            "CORRUPTION_MODES",
            "ChaosProxy",
            "DaemonStartupError",
            "ProxyPlan",
            "ServiceDaemon",
            "corrupt_record",
            "quarantined_files",
            "spool_frames",
            "spool_ids_per_key",
            "spool_job_ids",
            "spool_record",
        ),
        ".unbounded": ("Unbounded",),
    },
)
