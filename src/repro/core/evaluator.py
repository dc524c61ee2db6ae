"""Pluggable fitness-evaluation engine for the EMTS hot path.

The paper's complexity analysis (Section III-E) identifies fitness
evaluation — one list-scheduler run per offspring — as the cost driver of
the whole algorithm.  This module turns that hot path into a swappable
component: :class:`SerialEvaluator` is the one backend, and every
wrapper (verification, tracing, chaos injection) stacks on it through
the same duck-typed ``evaluate_batch`` / ``stats`` / ``close``
interface.  It scores a whole generation in one call to the compiled
batch kernel
(:meth:`repro.mapping.ScheduleKernel.makespan_batch`), which spreads the
rows across OpenMP threads when ``REPRO_CKERNEL_THREADS`` asks for more
than one; the makespans are bit-identical for any thread count.

Every submitted genome is scored: there is no fitness cache, because
the batch kernel maps a genome faster than a cache could look it up
(``results/fitness_cache.txt``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..mapping import kernel_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..graph import PTG
    from ..timemodels import TimeTable

__all__ = [
    "EvaluationStats",
    "SerialEvaluator",
    "create_evaluator",
]


@dataclass
class EvaluationStats:
    """Counters accumulated by a :class:`SerialEvaluator`.

    Attributes
    ----------
    evaluations:
        Genomes submitted for evaluation (logical fitness evaluations;
        one per offspring).
    mapper_calls:
        List-scheduler runs executed (equal to ``evaluations``: every
        genome is scored).
    cache_hits:
        Always 0 for new runs: fitness values are not cached.  Kept
        because checkpoints of builds that memoized fitness carry
        nonzero counts, which a resumed run keeps adding up.
    batches:
        Number of scored batches (one per EA generation, typically).
    wall_seconds:
        Total wall-clock time spent scoring them.
    """

    evaluations: int = 0
    mapper_calls: int = 0
    cache_hits: int = 0
    batches: int = 0
    wall_seconds: float = 0.0

    def copy(self) -> "EvaluationStats":
        """An independent snapshot of the current counters."""
        return EvaluationStats(
            evaluations=self.evaluations,
            mapper_calls=self.mapper_calls,
            cache_hits=self.cache_hits,
            batches=self.batches,
            wall_seconds=self.wall_seconds,
        )

    def merge(self, other: "EvaluationStats") -> None:
        """Add ``other``'s counters into this one (resumed runs)."""
        self.evaluations += other.evaluations
        self.mapper_calls += other.mapper_calls
        self.cache_hits += other.cache_hits
        self.batches += other.batches
        self.wall_seconds += other.wall_seconds

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.evaluations} evaluations "
            f"({self.mapper_calls} mapper calls) "
            f"in {self.wall_seconds:.3f} s"
        )


class SerialEvaluator:
    """Batch fitness evaluation on the table's compiled scheduling kernel.

    Maps allocation genomes to makespans.  The
    :class:`~repro.mapping.ScheduleKernel` is built (or fetched from the
    table's cache) once in the constructor, and every batch is one
    :meth:`~repro.mapping.ScheduleKernel.makespan_batch` call on it.
    The time table must have been built for ``ptg``.  Evaluators are
    context managers: leaving the ``with`` block calls :meth:`close`.
    """

    def __init__(self, ptg: "PTG", table: "TimeTable") -> None:
        if not (ptg is table.ptg or ptg == table.ptg):
            raise ConfigurationError(
                f"time table was built for PTG {table.ptg.name!r}, not "
                f"for PTG {ptg.name!r}: the two graphs differ"
            )
        self.ptg = ptg
        self.table = table
        self.stats = EvaluationStats()
        self._kernel = kernel_for(table)

    # -- public API ----------------------------------------------------
    def evaluate(
        self,
        genomes: Sequence[np.ndarray],
        abort_above: float | None = None,
    ) -> list[float]:
        """Makespan of every genome, in input order.

        ``abort_above`` enables the mapper's rejection strategy: genomes
        whose makespan provably reaches the bound come back as ``inf``.
        """
        return self.evaluate_batch(list(genomes), abort_above)

    def evaluate_batch(
        self,
        genome_block,
        abort_above: float | None = None,
    ) -> list[float]:
        """Makespan of every row of a ``(B, V)`` genome block.

        The population-at-once entry point: the whole block flows to
        the kernel as one array — one vectorized validation and one
        native batch call.  ``genome_block`` may also be a list of
        genome vectors; a malformed block (wrong shape, ragged rows,
        out-of-range or non-integer allocations) raises
        :class:`~repro.exceptions.AllocationError`.
        """
        t0 = time.perf_counter()
        values = self._kernel.makespan_batch(genome_block, abort_above)
        if values:
            self.stats.batches += 1
            self.stats.evaluations += len(values)
            self.stats.mapper_calls += len(values)
            self.stats.wall_seconds += time.perf_counter() - t0
        return values

    def __call__(self, genome: np.ndarray) -> float:
        """Single-genome convenience (drop-in for a fitness closure)."""
        return self.evaluate([genome])[0]

    def close(self) -> None:
        """Release any resources held; idempotent."""

    def __enter__(self) -> "SerialEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SerialEvaluator(ptg={self.ptg.name!r})"


def create_evaluator(
    ptg: "PTG",
    table: "TimeTable",
    verify: str = "off",
    verify_interval: int | None = None,
):
    """Build the evaluator stack for one EMTS run.

    The backend is a :class:`SerialEvaluator`.  ``verify`` stacks a
    :class:`repro.verify.VerifyingEvaluator` on the outside —
    ``"sample"`` replays one genome per ``verify_interval`` submissions
    through every scheduling engine, ``"full"`` replays all of them;
    both scan every batch for NaN.  ``"off"`` adds nothing.
    """
    if verify not in ("off", "sample", "full"):
        raise ConfigurationError(
            f"verify must be 'off', 'sample' or 'full', got {verify!r}"
        )
    evaluator = SerialEvaluator(ptg, table)
    if verify != "off":
        # imported lazily: repro.verify pulls in the mapping and
        # simulator packages, which in turn import this module
        from ..verify import DEFAULT_SAMPLE_INTERVAL, VerifyingEvaluator

        evaluator = VerifyingEvaluator(
            evaluator,
            ptg,
            table,
            mode=verify,
            sample_interval=(
                DEFAULT_SAMPLE_INTERVAL
                if verify_interval is None
                else verify_interval
            ),
        )
    return evaluator
