"""Individuals of the evolution strategy.

An individual wraps an integer genome (for EMTS: the allocation vector,
paper Figure 2 — position ``i`` holds ``s(v_i)``) together with its cached
fitness.  Fitness is *minimized* throughout the library (the makespan
objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Individual"]


@dataclass
class Individual:
    """One member of an EA population.

    Parameters
    ----------
    genome:
        The decision vector; copied defensively and made read-only so a
        mutation operator can never silently corrupt a parent.
    fitness:
        Cached objective value (lower is better); ``None`` = not yet
        evaluated.
    origin:
        Provenance label for analysis, e.g. ``"seed:mcpa"`` or
        ``"mutation"`` (the paper seeds EMTS with heuristic solutions and
        it is useful to know which seeds survive selection).
    """

    genome: np.ndarray
    fitness: float | None = None
    origin: str = "unknown"
    generation: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        g = np.array(self.genome, dtype=np.int64, copy=True)
        g.setflags(write=False)
        self.genome = g
        if self.fitness is not None:
            self.fitness = float(self.fitness)

    # ------------------------------------------------------------------
    @property
    def evaluated(self) -> bool:
        """True once a fitness value has been assigned."""
        return self.fitness is not None

    def evaluated_fitness(self) -> float:
        """The fitness, raising if the individual was never evaluated."""
        if self.fitness is None:
            raise ValueError("individual has not been evaluated")
        return self.fitness

    def dominates(self, other: "Individual") -> bool:
        """Strictly better fitness than ``other`` (both evaluated)."""
        return self.evaluated_fitness() < other.evaluated_fitness()

    def __len__(self) -> int:
        return int(self.genome.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fit = (
            "unevaluated"
            if self.fitness is None
            else (
                "inf"
                if math.isinf(self.fitness)
                else f"{self.fitness:.6g}"
            )
        )
        return (
            f"Individual(len={len(self)}, fitness={fit}, "
            f"origin={self.origin!r})"
        )
