"""Instrumentation glue between the observability layer and the engine.

Two pieces live here:

* :class:`ObservedEvaluator` — the duck-typed evaluator wrapper
  (``evaluate`` / ``stats`` / ``close``, same contract
  as :class:`~repro.verify.VerifyingEvaluator`) that records one
  ``evaluation`` trace event (its ``dur`` is the batch wall time, from
  which a run's ``seed_fitness`` and ``fitness_batch`` phases are
  summed; with a verifier in the stack, its ``verify_seconds`` is the
  share spent in differential replays) and one batch-duration
  histogram sample per fitness batch.  It is only ever constructed
  when tracing or metrics are enabled, so the disabled path carries no
  wrapper at all.
* :func:`run_metrics` — the canonical metrics-registry projection of
  one finished EMTS run (``--metrics-out``).
"""

from __future__ import annotations

import math
import time
from typing import Sequence

from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = ["ObservedEvaluator", "run_metrics"]


class ObservedEvaluator:
    """Record per-batch trace events and metrics around any evaluator.

    Sits outermost in the evaluator stack (outside verification), so
    the recorded batch durations include the whole stack's cost.  Given
    the stack's ``verifier`` (a :class:`~repro.verify.VerifyingEvaluator`),
    each ``evaluation`` event also carries ``verify_seconds``, the part
    of its ``dur`` spent in differential replays, so the run's phase
    breakdown can count it as ``verify`` instead of fitness evaluation.
    """

    def __init__(
        self,
        inner,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        verifier=None,
    ) -> None:
        self.inner = inner
        self.tracer = tracer
        self.metrics = metrics
        self.verifier = verifier

    # -- evaluator interface -------------------------------------------
    @property
    def stats(self):
        """The wrapped evaluator's counters."""
        return self.inner.stats

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "ObservedEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __call__(self, genome) -> float:
        return self.evaluate([genome])[0]

    # ------------------------------------------------------------------
    def _record(
        self,
        values: list[float],
        abort_above: float | None,
        dt: float,
        verify_seconds: float | None,
    ) -> None:
        rejected = sum(1 for v in values if math.isinf(v))
        if self.tracer is not None:
            attrs = {
                "genomes": len(values),
                "bounded": abort_above is not None,
                "rejected": rejected,
            }
            if verify_seconds is not None:
                attrs["verify_seconds"] = verify_seconds
            self.tracer.event("evaluation", attrs=attrs, dur=dt)
        if self.metrics is not None:
            self.metrics.counter("evaluation.batches").inc()
            self.metrics.counter("evaluation.genomes").inc(
                len(values)
            )
            if rejected:
                self.metrics.counter("evaluation.rejected").inc(
                    rejected
                )
            self.metrics.histogram(
                "evaluation.batch_seconds"
            ).observe(dt)

    def evaluate(
        self,
        genomes: Sequence,
        abort_above: float | None = None,
    ) -> list[float]:
        """List form of :meth:`evaluate_batch`."""
        return self.evaluate_batch(list(genomes), abort_above=abort_above)

    def evaluate_batch(
        self,
        genome_block,
        abort_above: float | None = None,
    ) -> list[float]:
        """Evaluate one batch, recording its trace event and metrics."""
        verifier = self.verifier
        before = verifier.verify_seconds if verifier is not None else 0.0
        t0 = time.perf_counter()
        values = self.inner.evaluate_batch(
            genome_block, abort_above=abort_above
        )
        dt = time.perf_counter() - t0
        verify_seconds = (
            verifier.verify_seconds - before if verifier is not None else None
        )
        self._record(values, abort_above, dt, verify_seconds)
        return values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObservedEvaluator({self.inner!r})"


# ----------------------------------------------------------------------
def run_metrics(
    result, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Project one finished EMTS run onto the metrics registry.

    ``result`` is an :class:`~repro.core.emts.EMTSResult` (duck-typed:
    anything with ``evaluation_stats``, ``log``, ``elapsed_seconds``,
    ``makespan`` and ``interrupted`` works).  Fills ``registry`` (a new
    one when ``None``) with the canonical ``emts.*`` metrics and
    returns it.
    """
    reg = registry if registry is not None else MetricsRegistry()
    stats = result.evaluation_stats
    if stats is not None:
        reg.counter(
            "emts.evaluations", help="genomes submitted for evaluation"
        ).inc(stats.evaluations)
        reg.counter(
            "emts.mapper_calls", help="list-scheduler runs executed"
        ).inc(stats.mapper_calls)
        reg.counter("emts.cache_hits").inc(stats.cache_hits)
        reg.counter("emts.eval_batches").inc(stats.batches)
        reg.histogram("emts.eval_seconds").observe(stats.wall_seconds)
        reg.gauge(
            "emts.cache_hit_rate",
            help="always 0: every genome is scored",
        ).set(
            stats.cache_hits / stats.evaluations
            if stats.evaluations
            else 0.0
        )
    reg.counter(
        "emts.generations", help="completed evolutionary steps"
    ).inc(max(0, result.log.generations - 1))
    reg.histogram("emts.run_seconds").observe(result.elapsed_seconds)
    reg.gauge("emts.makespan").set(float(result.makespan))
    reg.gauge("emts.interrupted").set(
        1.0 if result.interrupted else 0.0
    )
    return reg

