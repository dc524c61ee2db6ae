"""Instrumentation glue between the observability layer and the engine.

Two pieces live here:

* :class:`ObservedEvaluator` — the duck-typed evaluator wrapper
  (``evaluate`` / ``stats`` / ``close``, same contract
  as :class:`~repro.verify.VerifyingEvaluator`) that records one
  ``evaluation`` trace event (its ``dur`` is the batch wall time, from
  which a run's ``seed_fitness`` and ``fitness_batch`` phases are
  summed) and one batch-duration histogram sample per fitness batch.
  It is only ever constructed when tracing or metrics are enabled, so
  the disabled path carries no wrapper at all.
* :func:`run_metrics` / :func:`run_snapshot` — the canonical
  metrics-registry projection of one finished EMTS run.  This is the
  single source of truth for eval-stat summaries: the experiment
  harness (:mod:`repro.experiments.harness`) and the runtime tables
  (:mod:`repro.experiments.runtime`) both consume it, so their
  "interrupted"/evaluations/cache columns can never drift apart again.
"""

from __future__ import annotations

import math
import time
from typing import Any, Sequence

from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = ["ObservedEvaluator", "run_metrics", "run_snapshot"]


class ObservedEvaluator:
    """Record per-batch trace events and metrics around any evaluator.

    Sits outermost in the evaluator stack (outside verification), so
    the recorded batch durations include the whole stack's cost — which
    is what the run's phase breakdown attributes to fitness evaluation.
    """

    def __init__(
        self,
        inner,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.inner = inner
        self.tracer = tracer
        self.metrics = metrics

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
    ) -> None:
        rejected = sum(1 for v in values if math.isinf(v))
        if self.tracer is not None:
            self.tracer.event(
                "evaluation",
                attrs={
                    "genomes": len(values),
                    "bounded": abort_above is not None,
                    "rejected": rejected,
                },
                dur=dt,
            )
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
        t0 = time.perf_counter()
        values = self.inner.evaluate_batch(
            genome_block, abort_above=abort_above
        )
        self._record(values, abort_above, time.perf_counter() - t0)
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
        reg.timer("emts.eval_seconds").observe(stats.wall_seconds)
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
    reg.timer("emts.run_seconds").observe(result.elapsed_seconds)
    reg.gauge("emts.makespan").set(float(result.makespan))
    reg.gauge("emts.interrupted").set(
        1.0 if result.interrupted else 0.0
    )
    return reg


def run_snapshot(result) -> dict[str, Any]:
    """Flat canonical eval-stat summary of one EMTS run.

    Derived from the :func:`run_metrics` registry snapshot, so every
    consumer (harness records, runtime tables, CLI summaries) reads the
    same field names and the same values.
    """
    snap = run_metrics(result).snapshot()

    def value(name: str, default=0):
        data = snap.get(name)
        return data["value"] if data is not None else default

    def timer_total(name: str) -> float:
        data = snap.get(name)
        return float(data["total"]) if data is not None else 0.0

    evaluations = int(value("emts.evaluations"))
    cache_hits = int(value("emts.cache_hits"))
    return {
        "evaluations": evaluations,
        "mapper_calls": int(value("emts.mapper_calls")),
        "cache_hits": cache_hits,
        "hit_rate": (
            cache_hits / evaluations if evaluations else 0.0
        ),
        "eval_seconds": timer_total("emts.eval_seconds"),
        "elapsed_seconds": timer_total("emts.run_seconds"),
        "generations": int(value("emts.generations")),
        "makespan": float(value("emts.makespan", math.nan)),
        "interrupted": bool(value("emts.interrupted")),
    }
