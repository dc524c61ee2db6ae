"""Per-generation statistics and evolution logging.

The paper's experiments care about the trade-off between optimization
time and makespan (Section V reports EMTS run times alongside schedule
quality), so the log records wall-clock per generation as well as fitness
statistics and the number of fitness evaluations (mapper calls) — the
quantity the paper's complexity analysis ``O(U * mu * lambda * C_map)``
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .individual import Individual

__all__ = ["GenerationStats", "EvolutionLog", "population_diversity"]


def population_diversity(population: list[Individual]) -> float:
    """Mean per-position spread of the population's genomes.

    Defined as the average (over genome positions) standard deviation of
    the allele values across the population — 0 when every individual is
    identical.  Useful for convergence diagnostics: a plus-strategy that
    has collapsed to one genotype can only escape via mutation.
    """
    if not population:
        raise ValueError("population is empty")
    genomes = np.stack([ind.genome for ind in population])
    if genomes.shape[0] == 1:
        return 0.0
    return float(genomes.std(axis=0).mean())


@dataclass(frozen=True)
class GenerationStats:
    """Snapshot of the population after one generation."""

    generation: int
    best: float
    mean: float
    std: float
    worst: float
    evaluations: int
    elapsed_seconds: float

    @classmethod
    def from_population(
        cls,
        generation: int,
        population: list[Individual],
        evaluations: int,
        elapsed_seconds: float,
    ) -> "GenerationStats":
        fits = np.array(
            [ind.evaluated_fitness() for ind in population],
            dtype=np.float64,
        )
        # the reductions of ndarray.min, max, mean and std, in the same
        # order on the same operands (so the same bits), without their
        # Python-level dispatch, which costs more than a small
        # population's arithmetic; min raises on an empty population
        best = float(np.minimum.reduce(fits))
        worst = float(np.maximum.reduce(fits))
        finite = fits[np.isfinite(fits)]
        if finite.size == 0:
            finite = fits  # everything rejected: report the infs honestly
        n = finite.size
        mean = np.add.reduce(finite) / n
        dev = finite - mean
        np.square(dev, out=dev)
        return cls(
            generation=generation,
            best=best,
            mean=float(mean),
            std=float(np.sqrt(np.add.reduce(dev) / n)),
            worst=worst,
            evaluations=evaluations,
            elapsed_seconds=elapsed_seconds,
        )

    def trace_attrs(self) -> dict:
        """This generation as ``generation`` trace-event attributes.

        Fitness statistics are deterministic for a fixed seed; the only
        wall-clock field is ``elapsed_seconds``, whose ``_seconds``
        suffix makes :func:`repro.obs.strip_timestamps` drop it — so
        same-seed traces stay bit-identical after stripping.
        """
        return {
            "generation": self.generation,
            "best": self.best,
            "mean": self.mean,
            "std": self.std,
            "worst": self.worst,
            "evaluations": self.evaluations,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class EvolutionLog:
    """Chronological record of one EA run."""

    entries: list[GenerationStats] = field(default_factory=list)

    def append(self, stats: GenerationStats) -> None:
        """Record one generation."""
        self.entries.append(stats)

    @property
    def generations(self) -> int:
        """Number of recorded generations (including generation 0)."""
        return len(self.entries)

    @property
    def total_evaluations(self) -> int:
        """Total fitness evaluations across the run."""
        return sum(e.evaluations for e in self.entries)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across the run."""
        return sum(e.elapsed_seconds for e in self.entries)

    def best_trajectory(self) -> np.ndarray:
        """Best fitness per generation (length = generations)."""
        return np.array([e.best for e in self.entries], dtype=np.float64)

    def is_monotone(self) -> bool:
        """True when best fitness never worsened (plus-strategy property)."""
        traj = self.best_trajectory()
        return bool(np.all(np.diff(traj) <= 1e-12))

    def to_rows(self) -> list[dict]:
        """Rows suitable for CSV export."""
        return [
            {
                "generation": e.generation,
                "best": e.best,
                "mean": e.mean,
                "std": e.std,
                "worst": e.worst,
                "evaluations": e.evaluations,
                "elapsed_seconds": e.elapsed_seconds,
            }
            for e in self.entries
        ]

    def __str__(self) -> str:
        lines = [
            "gen       best       mean        std  evals   time[s]"
        ]
        for e in self.entries:
            lines.append(
                f"{e.generation:>3} {e.best:>10.4g} {e.mean:>10.4g} "
                f"{e.std:>10.4g} {e.evaluations:>6} "
                f"{e.elapsed_seconds:>8.3f}"
            )
        return "\n".join(lines)
