"""E7 — EMTS optimization run times (paper Section V, in-text table).

The paper reports mean EMTS optimization times (with standard deviations)
on an Intel Core i5 (2.53 GHz), its prototype also being written in
Python:

=========  =========  ==========================  =============
variant    platform   workload                    paper time
=========  =========  ==========================  =============
EMTS5      Chti       Strassen (small PTGs)       0.45 s (SD 0.01)
EMTS5      Chti       100-node PTGs               2.7 s (SD 1.1)
EMTS5      Grelon     small PTGs                  1.3 s (SD 0.07)
EMTS5      Grelon     100-node PTGs               5.5 s (SD 1.7)
EMTS10     Grelon     small PTGs                  9.6 s (SD 0.5)
EMTS10     Grelon     100-node PTGs               38.1 s (SD 9.5)
=========  =========  ==========================  =============

This harness measures the same six cells on the current host.  Absolute
values depend on the machine; what must hold is the *structure*: EMTS5
on small PTGs is sub-second-ish, 100-node PTGs cost a few times more,
Grelon (120 procs) costs more than Chti (20), and EMTS10 is roughly an
order of magnitude above EMTS5 (4x the evaluations times 2x the
generations).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._rng import ensure_generator, iter_seeds
from ..core import EMTS, emts5, emts10
from ..platform import Cluster, chti, grelon
from ..timemodels import SyntheticModel, TimeTable
from ..workloads import DaggenParams, generate_daggen, generate_strassen
from .report import text_table

__all__ = ["RuntimeCell", "RuntimeReport", "measure_runtimes"]


@dataclass(frozen=True)
class RuntimeCell:
    """Measured timing for one (variant, platform, workload) cell."""

    variant: str
    platform: str
    workload: str
    mean_seconds: float
    std_seconds: float
    repetitions: int
    paper_mean_seconds: float
    paper_std_seconds: float
    # fitness-evaluation engine counters, averaged over the repetitions
    mean_evaluations: float = 0.0
    mean_mapper_calls: float = 0.0
    cache_hit_rate: float = 0.0


@dataclass
class RuntimeReport:
    """All measured cells with a text renderer."""

    cells: list[RuntimeCell]

    def cell(self, variant: str, platform: str, workload: str) -> RuntimeCell:
        """Look up one cell."""
        for c in self.cells:
            if (
                c.variant == variant
                and c.platform == platform
                and c.workload == workload
            ):
                return c
        raise KeyError((variant, platform, workload))

    def render(self) -> str:
        """Side-by-side measured vs paper timings plus evaluator stats."""
        rows = [
            [
                c.variant,
                c.platform,
                c.workload,
                c.mean_seconds,
                c.std_seconds,
                c.paper_mean_seconds,
                c.paper_std_seconds,
                c.mean_mapper_calls,
                f"{c.cache_hit_rate:.1%}",
            ]
            for c in self.cells
        ]
        return text_table(
            [
                "variant",
                "platform",
                "workload",
                "mean[s]",
                "sd[s]",
                "paper mean[s]",
                "paper sd[s]",
                "mapper calls",
                "cache hits",
            ],
            rows,
        )


def _measure(
    emts: EMTS,
    cluster: Cluster,
    ptgs: list,
    seed: int | None,
) -> tuple[float, float, float, float, float]:
    model = SyntheticModel()
    times = []
    evaluations = []
    mapper_calls = []
    hits = []
    stream = iter_seeds(ensure_generator(seed, "runtime", emts.name))
    for ptg in ptgs:
        table = TimeTable.build(model, ptg, cluster)
        t0 = time.perf_counter()
        result = emts.schedule(ptg, cluster, table, rng=next(stream))
        times.append(time.perf_counter() - t0)
        stats = result.evaluation_stats
        evaluations.append(stats.evaluations)
        mapper_calls.append(stats.mapper_calls)
        hits.append(stats.cache_hits)
    arr = np.asarray(times)
    total_evals = sum(evaluations)
    return (
        float(arr.mean()),
        float(arr.std(ddof=1) if arr.size > 1 else 0.0),
        float(np.mean(evaluations)) if evaluations else 0.0,
        float(np.mean(mapper_calls)) if mapper_calls else 0.0,
        float(sum(hits) / total_evals) if total_evals else 0.0,
    )


def measure_runtimes(
    seed: int | None = None,
    repetitions: int = 5,
    verify: str = "off",
) -> RuntimeReport:
    """Measure the paper's six runtime cells on this host.

    ``verify`` enables online differential verification of the fitness
    values (``"sample"`` or ``"full"``); it is results-transparent but
    its cost shows up in the measured times — which is exactly how the
    ``--verify sample`` overhead budget is audited.
    """
    rng = ensure_generator(seed, "runtime", "workloads")
    small = [
        generate_strassen(rng=rng, name=f"rt-strassen-{i}")
        for i in range(repetitions)
    ]
    large = [
        generate_daggen(
            DaggenParams(
                num_tasks=100,
                width=0.5,
                regularity=0.2,
                density=0.2,
                jump=2,
            ),
            rng=rng,
            name=f"rt-irregular-{i}",
        )
        for i in range(repetitions)
    ]
    plan = [
        # variant factory, platform, workload, ptgs, paper mean, paper sd
        (emts5, chti(), "strassen", small, 0.45, 0.01),
        (emts5, chti(), "100-node", large, 2.7, 1.1),
        (emts5, grelon(), "strassen", small, 1.3, 0.07),
        (emts5, grelon(), "100-node", large, 5.5, 1.7),
        (emts10, grelon(), "strassen", small, 9.6, 0.5),
        (emts10, grelon(), "100-node", large, 38.1, 9.5),
    ]
    cells = []
    for factory, cluster, workload, ptgs, p_mean, p_std in plan:
        emts = factory(verify=verify)
        mean, std, evals, calls, hit_rate = _measure(
            emts, cluster, ptgs, seed
        )
        cells.append(
            RuntimeCell(
                variant=emts.name,
                platform=cluster.name,
                workload=workload,
                mean_seconds=mean,
                std_seconds=std,
                repetitions=len(ptgs),
                paper_mean_seconds=p_mean,
                paper_std_seconds=p_std,
                mean_evaluations=evals,
                mean_mapper_calls=calls,
                cache_hit_rate=hit_rate,
            )
        )
    return RuntimeReport(cells=cells)
