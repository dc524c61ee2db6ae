"""Experiment harness: run scheduler comparisons over PTG corpora.

One :class:`RunRecord` is produced per (PTG, platform) pair: the EMTS
makespan and run time plus the makespan of every baseline heuristic, all
computed against a *shared* time table so every algorithm sees identical
task-time predictions.  Aggregation then reproduces the paper's
per-class / per-platform relative-makespan summaries (Figures 4 and 5).
"""

from __future__ import annotations

import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .._rng import ensure_generator, iter_seeds
from ..allocation import AllocationHeuristic
from ..core import EMTS, EMTSConfig, make_allocator
from ..graph import PTG
from ..mapping import makespan_of
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..platform import Cluster
from ..timemodels import ExecutionTimeModel, TimeTable
from .campaign import CampaignResult, Trial, run_campaign
from .metrics import MeanCI, mean_confidence_interval, relative_makespans

__all__ = [
    "RunRecord",
    "ComparisonResult",
    "run_comparison",
    "record_to_dict",
    "record_from_dict",
    "comparison_trials",
    "run_comparison_campaign",
]


@dataclass(frozen=True)
class RunRecord:
    """Result of scheduling one PTG on one platform with one model."""

    ptg_name: str
    ptg_class: str
    num_tasks: int
    platform: str
    model: str
    emts_name: str
    emts_makespan: float
    emts_seconds: float
    baseline_makespans: dict[str, float]
    # fitness-evaluation engine counters (0 for records predating them)
    emts_evaluations: int = 0
    emts_mapper_calls: int = 0
    emts_cache_hits: int = 0
    # True when the EMTS run was cut short by a wall-time budget; its
    # makespan is then a best-so-far value, not the full-horizon result
    interrupted: bool = False

    def relative(self, baseline: str) -> float:
        """``T_baseline / T_EMTS`` for this instance."""
        return self.baseline_makespans[baseline] / self.emts_makespan


@dataclass
class ComparisonResult:
    """All records of one comparison sweep, with aggregation helpers."""

    records: list[RunRecord] = field(default_factory=list)

    def filter(
        self,
        ptg_class: str | None = None,
        platform: str | None = None,
        model: str | None = None,
    ) -> "ComparisonResult":
        """Subset matching the given attributes."""
        out = [
            r
            for r in self.records
            if (ptg_class is None or r.ptg_class == ptg_class)
            and (platform is None or r.platform == platform)
            and (model is None or r.model == model)
        ]
        return ComparisonResult(out)

    @property
    def baselines(self) -> tuple[str, ...]:
        """Baseline names present in the records."""
        if not self.records:
            return ()
        return tuple(sorted(self.records[0].baseline_makespans))

    @property
    def classes(self) -> tuple[str, ...]:
        """PTG classes present, in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.ptg_class, None)
        return tuple(seen)

    @property
    def platforms(self) -> tuple[str, ...]:
        """Platforms present, in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.platform, None)
        return tuple(seen)

    def relative_makespan(self, baseline: str) -> MeanCI:
        """Mean +- 95 % CI of ``T_baseline / T_EMTS`` over the records."""
        base = np.array(
            [r.baseline_makespans[baseline] for r in self.records]
        )
        emts = np.array([r.emts_makespan for r in self.records])
        return mean_confidence_interval(relative_makespans(base, emts))

    def to_rows(self) -> list[dict]:
        """Flat dict rows (CSV-friendly)."""
        rows = []
        for r in self.records:
            row = {
                "ptg": r.ptg_name,
                "class": r.ptg_class,
                "tasks": r.num_tasks,
                "platform": r.platform,
                "model": r.model,
                "emts": r.emts_name,
                "emts_makespan": r.emts_makespan,
                "emts_seconds": r.emts_seconds,
                "emts_evaluations": r.emts_evaluations,
                "emts_mapper_calls": r.emts_mapper_calls,
                "emts_cache_hits": r.emts_cache_hits,
                "interrupted": r.interrupted,
            }
            for name, ms in r.baseline_makespans.items():
                row[f"makespan_{name}"] = ms
            rows.append(row)
        return rows

    def __len__(self) -> int:
        return len(self.records)


def _compare(
    ptg: PTG,
    ptg_class: str,
    cluster: Cluster,
    model: ExecutionTimeModel,
    emts: EMTS,
    baselines: list[AllocationHeuristic],
    rng_seed: int,
    max_wall_time: float | None,
) -> RunRecord:
    """One (PTG, platform) comparison: baselines and EMTS on one table."""
    table = TimeTable.build(model, ptg, cluster)
    base_ms = {
        b.name: makespan_of(ptg, table, b.allocate(ptg, table))
        for b in baselines
    }
    t0 = time.perf_counter()
    emts_result = emts.schedule(
        ptg, cluster, table, rng=rng_seed, max_wall_time=max_wall_time
    )
    seconds = time.perf_counter() - t0
    stats = emts_result.evaluation_stats
    return RunRecord(
        ptg_name=ptg.name,
        ptg_class=ptg_class,
        num_tasks=ptg.num_tasks,
        platform=cluster.name,
        model=model.name,
        emts_name=emts.name,
        emts_makespan=emts_result.makespan,
        emts_seconds=seconds,
        baseline_makespans=base_ms,
        emts_evaluations=stats.evaluations,
        emts_mapper_calls=stats.mapper_calls,
        emts_cache_hits=stats.cache_hits,
        interrupted=emts_result.interrupted,
    )


def run_comparison(
    ptgs: dict[str, list[PTG]],
    platforms: list[Cluster],
    model: ExecutionTimeModel,
    emts: EMTS,
    baselines: list[AllocationHeuristic],
    seed: int | None = None,
    max_wall_time: float | None = None,
) -> ComparisonResult:
    """Schedule every PTG on every platform with EMTS and all baselines.

    Parameters
    ----------
    ptgs:
        PTG lists keyed by class label (``{"fft": [...], ...}``).
    platforms:
        Clusters to evaluate on (the paper: Chti and Grelon).
    model:
        Execution-time model shared by all algorithms.
    emts:
        The configured EMTS instance.
    baselines:
        Heuristics to compare against (the paper: MCPA and HCPA).
    seed:
        Root seed; each (class, platform, instance) triple gets its own
        derived stream, so adding a class never perturbs another's
        results.
    max_wall_time:
        Optional per-run wall-clock budget (seconds) for each EMTS
        invocation; runs that hit it stop at a generation boundary and
        are recorded with ``interrupted=True`` (best-so-far makespan).
        Long sweeps then degrade gracefully instead of overrunning.
    """
    result = ComparisonResult()
    for cluster in platforms:
        for cls, graphs in ptgs.items():
            stream = ensure_generator(
                seed, "harness", cluster.name, cls
            )
            seeds = iter_seeds(stream)
            for ptg in graphs:
                result.records.append(
                    _compare(
                        ptg,
                        cls,
                        cluster,
                        model,
                        emts,
                        baselines,
                        next(seeds),
                        max_wall_time,
                    )
                )
    return result


# ----------------------------------------------------------------------
# campaign integration: the same comparison, one crash-isolated trial per
# (PTG, platform) pair, resumable through repro.experiments.campaign
# ----------------------------------------------------------------------
def record_to_dict(record: RunRecord) -> dict:
    """A JSON-serializable form of one :class:`RunRecord`."""
    return asdict(record)


def record_from_dict(data: dict) -> RunRecord:
    """Rebuild a :class:`RunRecord` from :func:`record_to_dict` output."""
    return RunRecord(
        ptg_name=data["ptg_name"],
        ptg_class=data["ptg_class"],
        num_tasks=int(data["num_tasks"]),
        platform=data["platform"],
        model=data["model"],
        emts_name=data["emts_name"],
        emts_makespan=float(data["emts_makespan"]),
        emts_seconds=float(data["emts_seconds"]),
        baseline_makespans={
            k: float(v) for k, v in data["baseline_makespans"].items()
        },
        emts_evaluations=int(data.get("emts_evaluations", 0)),
        emts_mapper_calls=int(data.get("emts_mapper_calls", 0)),
        emts_cache_hits=int(data.get("emts_cache_hits", 0)),
        interrupted=bool(data.get("interrupted", False)),
    )


def _comparison_trial(
    ptg: PTG,
    ptg_class: str,
    cluster: Cluster,
    model: ExecutionTimeModel,
    emts_config: dict,
    baselines: tuple[str, ...],
    rng_seed: int,
    max_wall_time: float | None = None,
) -> dict:
    """Campaign trial body: one (PTG, platform) comparison.

    Module-level so the campaign runner can dispatch it to a subprocess;
    takes the EMTS *configuration* (as a plain dict), not an EMTS
    instance, and baseline *names*, so the payload round-trips through
    any :mod:`multiprocessing` start method.  The seconds field is
    wall-clock and varies between runs; every other field is
    deterministic for a given seed.
    """
    return record_to_dict(
        _compare(
            ptg,
            ptg_class,
            cluster,
            model,
            EMTS(EMTSConfig(**emts_config)),
            [make_allocator(name) for name in baselines],
            rng_seed,
            max_wall_time,
        )
    )


def _trial_key(cluster: Cluster, cls: str, index: int, ptg: PTG) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", ptg.name)
    return f"{cluster.name}.{cls}.{index:03d}.{safe}"


def comparison_trials(
    ptgs: dict[str, list[PTG]],
    platforms: list[Cluster],
    model: ExecutionTimeModel,
    emts: EMTS,
    baselines: list[AllocationHeuristic],
    seed: int | None = None,
    max_wall_time: float | None = None,
) -> list[Trial]:
    """The trial list equivalent to one :func:`run_comparison` sweep.

    Seeds are derived exactly as :func:`run_comparison` derives them —
    one per-(platform, class) stream, one draw per instance — so a
    campaign over these trials records the **same makespans** the
    monolithic harness would, just crash-isolated and resumable.
    """
    trials: list[Trial] = []
    emts_config = asdict(emts.config)
    baseline_names = tuple(b.name for b in baselines)
    for cluster in platforms:
        for cls, graphs in ptgs.items():
            stream = ensure_generator(seed, "harness", cluster.name, cls)
            seeds = iter_seeds(stream)
            for i, ptg in enumerate(graphs):
                trials.append(
                    Trial(
                        key=_trial_key(cluster, cls, i, ptg),
                        func=_comparison_trial,
                        kwargs=dict(
                            ptg=ptg,
                            ptg_class=cls,
                            cluster=cluster,
                            model=model,
                            emts_config=emts_config,
                            baselines=baseline_names,
                            rng_seed=next(seeds),
                            max_wall_time=max_wall_time,
                        ),
                    )
                )
    return trials


def run_comparison_campaign(
    ptgs: dict[str, list[PTG]],
    platforms: list[Cluster],
    model: ExecutionTimeModel,
    emts: EMTS,
    baselines: list[AllocationHeuristic],
    out_dir: str | Path,
    seed: int | None = None,
    max_wall_time: float | None = None,
    trial_timeout: float | None = None,
    max_retries: int = 2,
    max_trials: int | None = None,
    progress=None,
    trace: str | Path | Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[ComparisonResult, CampaignResult]:
    """:func:`run_comparison`, campaign-style.

    Each (PTG, platform) pair becomes one subprocess-isolated trial
    persisted under ``out_dir``; interrupting and re-running resumes
    from the persisted results and yields bit-identical records.
    Quarantined trials are simply absent from the returned
    :class:`ComparisonResult` (they are listed in the campaign result).
    ``trace`` / ``metrics`` are forwarded to
    :func:`repro.experiments.campaign.run_campaign`, which records one
    ``campaign_trial`` event (and outcome counter) per trial.
    """
    trials = comparison_trials(
        ptgs,
        platforms,
        model,
        emts,
        baselines,
        seed=seed,
        max_wall_time=max_wall_time,
    )
    campaign = run_campaign(
        trials,
        out_dir,
        trial_timeout=trial_timeout,
        max_retries=max_retries,
        max_trials=max_trials,
        progress=progress,
        trace=trace,
        metrics=metrics,
    )
    comparison = ComparisonResult(
        [record_from_dict(d) for d in campaign.results.values()]
    )
    return comparison, campaign
