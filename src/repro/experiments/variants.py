"""Comparing evolutionary-method variants (paper Section VI).

The paper's first future-work item: "different evolutionary methods
could be compared to each other with respect to scheduling performance
and speed".  This harness does exactly that — it runs a panel of EMTS
configurations on shared problems and reports, per variant, the mean
makespan (quality) and the mean optimization wall time (speed), plus
the quality-per-budget figure that makes the trade-off comparable.

The default panel covers the method axes the paper discusses:

* the paper's EMTS5 and EMTS10 ((5+25) and (10+100) plus strategies);
* a comma strategy of EMTS10's size (selection ablation at scale);
* a wide-exploration plus strategy (``fm = 1.0``, uniform-width
  mutation count) for the stalled-seed regime.

Every plus variant runs with the rejection-strategy mapper, which
changes speed and never quality (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import ensure_generator, iter_seeds
from ..core import EMTS, emts5_config, emts10_config
from ..graph import PTG
from ..platform import Cluster
from ..timemodels import ExecutionTimeModel, TimeTable
from .report import text_table

__all__ = ["VariantOutcome", "VariantsResult", "compare_variants",
           "default_variant_panel"]


def default_variant_panel() -> list[EMTS]:
    """The default method panel (see module docstring)."""
    return [
        EMTS(emts5_config()),
        EMTS(emts10_config()),
        EMTS(
            emts10_config().with_updates(
                selection="comma", name="emts10-comma"
            )
        ),
        EMTS(
            emts5_config().with_updates(
                fm=1.0, name="emts5-explore"
            )
        ),
    ]


@dataclass(frozen=True)
class VariantOutcome:
    """Aggregated quality/speed of one variant."""

    name: str
    mean_makespan: float
    mean_seconds: float
    mean_evaluations: float

    @property
    def seconds_per_evaluation(self) -> float:
        """Average cost of one fitness evaluation."""
        if self.mean_evaluations == 0:
            return 0.0
        return self.mean_seconds / self.mean_evaluations


@dataclass
class VariantsResult:
    """All variant outcomes on one problem set."""

    outcomes: list[VariantOutcome]

    def outcome(self, name: str) -> VariantOutcome:
        """Look up one variant by name."""
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    def best_quality(self) -> VariantOutcome:
        """The variant with the lowest mean makespan."""
        return min(self.outcomes, key=lambda o: o.mean_makespan)

    def fastest(self) -> VariantOutcome:
        """The variant with the lowest mean optimization time."""
        return min(self.outcomes, key=lambda o: o.mean_seconds)

    def render(self) -> str:
        """Quality/speed table, best quality first."""
        rows = [
            [
                o.name,
                o.mean_makespan,
                o.mean_seconds,
                int(o.mean_evaluations),
                o.seconds_per_evaluation * 1e3,
            ]
            for o in sorted(
                self.outcomes, key=lambda o: o.mean_makespan
            )
        ]
        return text_table(
            [
                "variant",
                "mean makespan [s]",
                "mean time [s]",
                "evals",
                "ms/eval",
            ],
            rows,
        )


def compare_variants(
    ptgs: list[PTG],
    cluster: Cluster,
    model: ExecutionTimeModel,
    variants: list[EMTS] | None = None,
    seed: int | None = None,
) -> VariantsResult:
    """Run every variant on every problem with shared per-problem seeds."""
    variants = variants or default_variant_panel()
    tables = [TimeTable.build(model, ptg, cluster) for ptg in ptgs]
    problem_seeds = [
        s
        for s, _ in zip(
            iter_seeds(ensure_generator(seed, "variants")), ptgs
        )
    ]
    outcomes = []
    for variant in variants:
        makespans, seconds, evals = [], [], []
        for ptg, table, problem_seed in zip(
            ptgs, tables, problem_seeds
        ):
            # hand every variant an *identical* generator (not a bare
            # seed: EMTS would fold its config name into the stream),
            # so variants that only differ in bookkeeping take
            # bit-identical trajectories
            result = variant.schedule(
                ptg,
                cluster,
                table,
                rng=np.random.default_rng(problem_seed),
            )
            makespans.append(result.makespan)
            seconds.append(result.elapsed_seconds)
            evals.append(result.evaluations)
        outcomes.append(
            VariantOutcome(
                name=variant.name,
                mean_makespan=float(np.mean(makespans)),
                mean_seconds=float(np.mean(seconds)),
                mean_evaluations=float(np.mean(evals)),
            )
        )
    return VariantsResult(outcomes=outcomes)
