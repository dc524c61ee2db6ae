"""Declarative fault plans for the online runtime.

A :class:`FaultPlan` is data, not behaviour: it lists which processors
crash when, which tasks fail transiently, and which tasks straggle.  The
runtime interprets it.  Keeping the plan declarative makes chaos runs
reproducible (two runs with the same plan see byte-identical fault
sequences) and serialisable into experiment manifests.

Plans can be written literally or drawn from a seed with
:meth:`FaultPlan.sampled`, which draws with the same per-index
sampling primitive (:func:`repro._rng.sample_indices`) as
:meth:`repro.testing.ChaosPlan.sampled` — one chaos vocabulary across
the evaluation pool and the execution runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import sample_indices
from ..exceptions import ConfigurationError

__all__ = ["ProcessorCrash", "TaskFailure", "Straggler", "FaultPlan"]


@dataclass(frozen=True)
class ProcessorCrash:
    """Processor ``processor`` fails permanently at simulated ``time``.

    Any task running on it at that moment fails (consuming one retry
    attempt) and the processor never returns to the alive set.
    """

    processor: int
    time: float


@dataclass(frozen=True)
class TaskFailure:
    """Task ``task`` fails transiently on its first ``attempts`` tries.

    Each doomed attempt aborts at ``at_fraction`` of its (possibly
    straggler-inflated) running time; the retry becomes eligible after
    an exponential backoff governed by the plan.  Once ``attempts``
    failures have fired, subsequent attempts succeed.
    """

    task: int
    attempts: int = 1
    at_fraction: float = 0.5


@dataclass(frozen=True)
class Straggler:
    """Task ``task`` runs ``factor`` times slower than the model predicts.

    The monitor only learns this at the task's *predicted* finish time,
    when the task is observably still running.
    """

    task: int
    factor: float = 2.0


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one online run.

    Attributes
    ----------
    crashes / failures / stragglers:
        The fault descriptors, at most one per processor respectively
        task (a task may both straggle *and* fail).
    max_retries:
        Retries allowed per task beyond the first attempt; a task whose
        failures exceed this is abandoned and the run aborts.
    backoff_seconds:
        Simulated delay before the first retry of a task.
    backoff_factor:
        Multiplier applied to the backoff on each further retry
        (``backoff_seconds * backoff_factor ** (attempt - 1)``).
    """

    crashes: tuple[ProcessorCrash, ...] = ()
    failures: tuple[TaskFailure, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    max_retries: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.crashes or self.failures or self.stragglers)

    def validate(self, num_tasks: int, num_processors: int) -> None:
        """Raise :class:`ConfigurationError` on an ill-formed plan."""
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_seconds < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff must be >= 0 seconds with factor >= 1, got "
                f"{self.backoff_seconds}s x{self.backoff_factor}"
            )
        seen_procs: set[int] = set()
        for crash in self.crashes:
            if not (0 <= crash.processor < num_processors):
                raise ConfigurationError(
                    f"crash names processor {crash.processor}, outside "
                    f"[0, {num_processors})"
                )
            if crash.processor in seen_procs:
                raise ConfigurationError(
                    f"processor {crash.processor} crashes twice"
                )
            seen_procs.add(crash.processor)
            if crash.time < 0 or not np.isfinite(crash.time):
                raise ConfigurationError(
                    f"crash time {crash.time!r} must be finite and >= 0"
                )
        if len(seen_procs) >= num_processors:
            raise ConfigurationError(
                "the plan crashes every processor; nothing could run"
            )
        seen_failures: set[int] = set()
        for failure in self.failures:
            if not (0 <= failure.task < num_tasks):
                raise ConfigurationError(
                    f"failure names task {failure.task}, outside "
                    f"[0, {num_tasks})"
                )
            if failure.task in seen_failures:
                raise ConfigurationError(
                    f"task {failure.task} has two failure descriptors"
                )
            seen_failures.add(failure.task)
            if failure.attempts < 1:
                raise ConfigurationError(
                    f"failure attempts must be >= 1, got "
                    f"{failure.attempts}"
                )
            if not (0.0 < failure.at_fraction <= 1.0):
                raise ConfigurationError(
                    f"at_fraction must lie in (0, 1], got "
                    f"{failure.at_fraction}"
                )
        seen_stragglers: set[int] = set()
        for straggler in self.stragglers:
            if not (0 <= straggler.task < num_tasks):
                raise ConfigurationError(
                    f"straggler names task {straggler.task}, outside "
                    f"[0, {num_tasks})"
                )
            if straggler.task in seen_stragglers:
                raise ConfigurationError(
                    f"task {straggler.task} has two straggler "
                    "descriptors"
                )
            seen_stragglers.add(straggler.task)
            if straggler.factor < 1.0 or not np.isfinite(
                straggler.factor
            ):
                raise ConfigurationError(
                    f"straggler factor must be finite and >= 1, got "
                    f"{straggler.factor}"
                )

    @classmethod
    def sampled(
        cls,
        rng: np.random.Generator | int,
        num_tasks: int,
        num_processors: int,
        *,
        horizon: float,
        crash_rate: float = 0.0,
        failure_rate: float = 0.0,
        straggler_rate: float = 0.0,
        straggler_factor: float = 2.0,
        fail_fraction: float = 0.5,
        max_retries: int = 3,
        backoff_factor: float = 2.0,
    ) -> "FaultPlan":
        """Draw a seed-reproducible plan.

        Each processor crashes with ``crash_rate`` (never all of them —
        the last survivor is spared), at a time uniform in
        ``(0, horizon)``; each task fails once with ``failure_rate`` and
        straggles by ``straggler_factor`` with ``straggler_rate``.
        ``horizon`` is normally the planned makespan; the backoff base
        is scaled to 2 % of it so retry delays stay proportionate to
        the workload.  Zero-rate fault types consume no randomness.
        """
        gen = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        if horizon <= 0 or not np.isfinite(horizon):
            raise ConfigurationError(
                f"horizon must be finite and > 0, got {horizon!r}"
            )
        crash_procs = sorted(
            sample_indices(gen, num_processors, crash_rate)
        )
        if len(crash_procs) >= num_processors:
            crash_procs = crash_procs[: num_processors - 1]
        crashes = tuple(
            ProcessorCrash(
                processor=p,
                time=float(gen.uniform(0.0, horizon)),
            )
            for p in crash_procs
        )
        failures = tuple(
            TaskFailure(task=v, attempts=1, at_fraction=fail_fraction)
            for v in sorted(sample_indices(gen, num_tasks, failure_rate))
        )
        stragglers = tuple(
            Straggler(task=v, factor=straggler_factor)
            for v in sorted(
                sample_indices(gen, num_tasks, straggler_rate)
            )
        )
        return cls(
            crashes=crashes,
            failures=failures,
            stragglers=stragglers,
            max_retries=max_retries,
            backoff_seconds=0.02 * float(horizon),
            backoff_factor=backoff_factor,
        )

    def summary(self) -> dict:
        """Counters for traces and result reporting."""
        return {
            "crashes": len(self.crashes),
            "failures": len(self.failures),
            "stragglers": len(self.stragglers),
        }
