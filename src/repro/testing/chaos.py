"""Deterministic chaos injection for the fitness-evaluation engine.

:class:`ChaosEvaluator` wraps a built evaluator and injects faults on a
per-batch schedule (:class:`ChaosPlan`): delay the batch, raise an
exception, corrupt a returned fitness to NaN or to a plausible wrong
value, stall the result like a straggler, or trip a stop event to
simulate an operator interrupt.

Everything is deterministic: faults fire at planned batch indices,
never at random moments, so a chaos test reproduces exactly.
Batch indices in an EMTS run: batch 0 evaluates the heuristic seeds,
batch 1 the initial population, batch ``k >= 2`` the offspring of
generation ``k - 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.evaluator import SerialEvaluator

__all__ = [
    "ChaosError",
    "ChaosPlan",
    "ChaosEvaluator",
    "sample_indices",
]


class ChaosError(RuntimeError):
    """The exception type raised by every injected fault.

    A distinct type so tests can assert that a propagated failure is
    the *injected* one and not collateral damage.
    """


def sample_indices(
    rng: np.random.Generator, n: int, rate: float
) -> frozenset:
    """Independently select each index in ``range(n)`` with ``rate``.

    The shared sampling primitive behind :meth:`ChaosPlan.sampled` and
    :meth:`repro.online.FaultPlan.sampled`: one uniform draw per index,
    kept when it falls below ``rate``.  A rate of zero consumes *no*
    randomness, so adding a new fault type to a plan never perturbs the
    draws of the existing ones.
    """
    if rate <= 0.0:
        return frozenset()
    draws = rng.random(n)
    return frozenset(int(i) for i in np.nonzero(draws < rate)[0])


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule, keyed by evaluation-batch index.

    Attributes
    ----------
    delay_batches:
        Sleep ``delay_seconds`` before dispatching these batches.
    raise_batches:
        Raise :class:`ChaosError` instead of dispatching these batches.
    nan_batches:
        Corrupt the first fitness value of these batches to NaN after
        evaluation (models a poisoned result reaching the driver).
    corrupt_batches:
        Multiply the first *finite* fitness value of these batches by
        ``corrupt_factor`` after evaluation — a silently wrong makespan,
        the exact failure mode a miscompiled or bit-flipped scheduling
        kernel would produce.  Undetectable without differential
        verification (the value stays plausible), which is what
        :class:`repro.verify.VerifyingEvaluator` exists to catch.
    corrupt_factor:
        Multiplier applied by ``corrupt_batches`` (close to 1.0 on
        purpose: a *near*-correct value is the hardest corruption).
    delay_seconds:
        Length of each injected delay.
    straggler_batches:
        Sleep ``straggler_seconds`` *after* evaluating these batches —
        the results are correct but arrive late, a straggling
        evaluation rather than a slow dispatch.  Together with ``delay_batches``
        this brackets a batch's latency from both sides.
    straggler_seconds:
        Length of each injected straggler stall.
    stop_after_batch:
        After completing this batch index, set the evaluator's stop
        event — simulates an operator interrupt at a deterministic
        point of the run.
    """

    delay_batches: frozenset = frozenset()
    raise_batches: frozenset = frozenset()
    nan_batches: frozenset = frozenset()
    corrupt_batches: frozenset = frozenset()
    corrupt_factor: float = 1.01
    delay_seconds: float = 0.01
    straggler_batches: frozenset = frozenset()
    straggler_seconds: float = 0.01
    stop_after_batch: int | None = None

    @classmethod
    def sampled(
        cls,
        rng: np.random.Generator | int,
        num_batches: int,
        delay_rate: float = 0.0,
        raise_rate: float = 0.0,
        nan_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        corrupt_factor: float = 1.01,
        delay_seconds: float = 0.01,
        straggler_rate: float = 0.0,
        straggler_seconds: float = 0.01,
    ) -> "ChaosPlan":
        """Draw a random (but seed-reproducible) plan.

        Each batch index in ``range(num_batches)`` is independently
        assigned each fault type with the given rate.  Pass an integer
        seed to make the plan a pure function of the seed.  Zero-rate
        fault types consume no randomness, so a plan sampled before the
        straggler fault existed reproduces unchanged.
        """
        gen = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        return cls(
            delay_batches=sample_indices(gen, num_batches, delay_rate),
            raise_batches=sample_indices(gen, num_batches, raise_rate),
            nan_batches=sample_indices(gen, num_batches, nan_rate),
            corrupt_batches=sample_indices(
                gen, num_batches, corrupt_rate
            ),
            corrupt_factor=corrupt_factor,
            delay_seconds=delay_seconds,
            straggler_batches=sample_indices(
                gen, num_batches, straggler_rate
            ),
            straggler_seconds=straggler_seconds,
        )


@dataclass
class ChaosEvaluator:
    """Wrap a fitness evaluator and execute a :class:`ChaosPlan`.

    Implements the same interface as the wrapped evaluator (``evaluate``,
    ``stats``, ``close``) so it drops into
    :meth:`repro.core.emts.EMTS.schedule` via ``evaluator_wrapper`` or
    anywhere a :class:`~repro.core.evaluator.SerialEvaluator` goes.
    Counts batches in ``batches_seen`` and faults actually fired in
    ``faults_injected``.
    """

    inner: SerialEvaluator  # or any wrapper with the same interface
    plan: ChaosPlan = field(default_factory=ChaosPlan)
    stop_event: object | None = None
    batches_seen: int = 0
    faults_injected: int = 0

    @property
    def stats(self):
        """The wrapped evaluator's counters (chaos adds none of its own)."""
        return self.inner.stats

    def evaluate(
        self,
        genomes: Sequence[np.ndarray],
        abort_above: float | None = None,
    ) -> list[float]:
        """List form of :meth:`evaluate_batch`."""
        return self.evaluate_batch(list(genomes), abort_above=abort_above)

    def evaluate_batch(
        self,
        genome_block: np.ndarray,
        abort_above: float | None = None,
    ) -> list[float]:
        """Evaluate one batch, detonating any faults planned for it."""
        plan = self.plan
        index = self.batches_seen
        self.batches_seen += 1
        if index in plan.delay_batches:
            self.faults_injected += 1
            time.sleep(plan.delay_seconds)
        if index in plan.raise_batches:
            self.faults_injected += 1
            raise ChaosError(
                f"injected driver-side failure at batch {index}"
            )
        values = self.inner.evaluate_batch(
            genome_block, abort_above=abort_above
        )
        if index in plan.straggler_batches:
            self.faults_injected += 1
            time.sleep(plan.straggler_seconds)
        if index in plan.nan_batches and values:
            self.faults_injected += 1
            values = list(values)
            values[0] = float("nan")
        if index in plan.corrupt_batches and values:
            values = list(values)
            for i, v in enumerate(values):
                if np.isfinite(v):
                    # a plausible-but-wrong makespan, as a corrupted
                    # compiled kernel would return it
                    values[i] = v * plan.corrupt_factor
                    self.faults_injected += 1
                    break
        if (
            plan.stop_after_batch is not None
            and index >= plan.stop_after_batch
            and self.stop_event is not None
        ):
            self.stop_event.set()
        return values

    def __call__(self, genome: np.ndarray) -> float:
        """Single-genome convenience entry point."""
        return self.evaluate([genome])[0]

    def close(self) -> None:
        """Release the wrapped evaluator's resources."""
        self.inner.close()
