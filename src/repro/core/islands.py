"""Island-model EMTS: (1 + lambda_i) sub-populations with ring migration.

The classic engine (:class:`repro.ea.EvolutionStrategy`) evolves one
panmictic (mu + lambda) population.  The island model decomposes the
same search into ``mu`` islands, each a (1 + lambda_i) evolution
strategy around one parent slot, with

``lambda_i = lam // mu + (1 if i < lam % mu else 0)``

so the per-generation offspring budget is exactly ``lam``, as in the
panmictic run.  Every ``migration_interval`` generations the islands
exchange individuals along a ring: island ``i`` receives the
previous-generation parent of island ``(i - 1) % mu`` as an extra
plus-selection candidate.  Migration is elitist and synchronous, so the
whole trajectory is a pure function of the seed.

:class:`IslandStrategy` runs inside the engine's generation loop and
supplies only what differs: one mutation stream per island (each
derived once from the master RNG via :func:`repro._rng.spawn_children`)
with the ``lambda_i`` split, and per island the best of parent, ring
migrant and its own children.  A generation's offspring of all islands
are one block and one ``evaluate_batch`` call, so the result is
bit-identical for any kernel thread count and either kernel backend.
That call's rejection bound is the worst parent over all islands: an
offspring must beat its own island's parent to survive.
``EMTSConfig(islands=False)`` selects the classic panmictic engine (a
different — also deterministic — trajectory).

Each island's survivor is the first minimum over ``[parent (+ migrant)]
+ offspring``, matching the classic engine's tie rule: parents win
ties, migrants beat equal offspring.
"""

from __future__ import annotations

import numpy as np

from ..ea import Individual
from ..ea.operators import MutationOperator
from ..ea.strategy import EvolutionResult, EvolutionStrategy, Fitness
from ..exceptions import ConfigurationError

__all__ = ["IslandStrategy", "island_offspring_counts"]


def island_offspring_counts(lam: int, num_islands: int) -> list[int]:
    """Per-island offspring budget: ``lam`` split as evenly as possible.

    The first ``lam % num_islands`` islands get one extra offspring, so
    the counts are a pure function of ``(lam, num_islands)`` and sum to
    ``lam`` exactly.
    """
    base, extra = divmod(lam, num_islands)
    return [base + (1 if i < extra else 0) for i in range(num_islands)]


class IslandStrategy(EvolutionStrategy):
    """Ring-migration island model over ``mu`` single-parent islands.

    Parameters
    ----------
    mu:
        Number of islands (= parent slots = the classic mu).
    lam:
        Total offspring per generation, split across islands.
    mutation:
        The variation operator applied to every offspring.
    migration_interval:
        Generations between ring migrations (>= 1; at every multiple,
        island ``i`` also considers island ``i-1``'s previous parent).
    """

    def __init__(
        self,
        mu: int,
        lam: int,
        mutation: MutationOperator,
        migration_interval: int = 1,
    ) -> None:
        super().__init__(mu, lam, mutation, selection="plus")
        if lam < mu:
            raise ConfigurationError(
                f"island model needs lambda >= mu so every island "
                f"produces offspring ({lam} < {mu})"
            )
        if migration_interval < 1:
            raise ConfigurationError(
                f"migration_interval must be >= 1, "
                f"got {migration_interval}"
            )
        self.migration_interval = int(migration_interval)
        self.offspring_counts = island_offspring_counts(lam, mu)

    def evolve(
        self,
        initial: list[Individual],
        fitness: Fitness,
        island_rngs: list[np.random.Generator],
        **options,
    ) -> EvolutionResult:
        """Run the island model from the given starting individuals.

        ``island_rngs`` must hold exactly ``mu`` generators — one
        mutation stream per island (the caller derives them from the
        master RNG, or restores them from a checkpoint).  ``options``
        are those of :meth:`EvolutionStrategy.evolve`.  The population
        reported in logs, hooks and the result is always the ordered
        list of island parents, so checkpoints capture island ``i``'s
        parent at index ``i``.
        """
        if len(island_rngs) != self.mu:
            raise ConfigurationError(
                f"island model needs exactly {self.mu} RNG streams, "
                f"got {len(island_rngs)}"
            )
        resuming = options.get("resume_log") is not None
        if resuming and len(initial) != self.mu:
            raise ConfigurationError(
                f"resumed island population holds {len(initial)} "
                f"parents, expected {self.mu}"
            )
        return self._run(initial, fitness, island_rngs, **options)

    def _first_parents(self, starters: list[Individual]) -> list[Individual]:
        # the initial global selection doubles as the island
        # assignment: the i-th survivor becomes island i's parent
        # (cycled when there are fewer starters than islands)
        return [starters[i % len(starters)] for i in range(self.mu)]

    def _offspring(
        self,
        parents: list[Individual],
        island_rngs: list[np.random.Generator],
        generation: int,
        total_generations: int,
    ) -> np.ndarray:
        # one parent per island: the block call draws no parent index
        return np.concatenate(
            [
                self.mutation.offspring(
                    parent.genome[np.newaxis],
                    count,
                    rng,
                    generation,
                    total_generations,
                )[1]
                for parent, count, rng in zip(
                    parents, self.offspring_counts, island_rngs
                )
            ]
        )

    def _survivors(
        self,
        parents: list[Individual],
        block: np.ndarray,
        fits: np.ndarray,
        generation: int,
    ) -> list[Individual]:
        migrating = (
            self.mu > 1 and generation % self.migration_interval == 0
        )
        survivors = []
        start = 0
        for i, count in enumerate(self.offspring_counts):
            candidates = [parents[i]]
            if migrating:
                # ring migration: the neighbour's *previous* generation
                # parent, so exchange is synchronous and independent of
                # island order
                candidates.append(parents[i - 1])
            k = int(
                np.argmin(
                    np.concatenate(
                        (
                            [ind.fitness for ind in candidates],
                            fits[start : start + count],
                        )
                    )
                )
            )
            n = len(candidates)
            survivors.append(
                candidates[k]
                if k < n
                else self._child(block, fits, start + k - n, generation)
            )
            start += count
        return survivors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IslandStrategy({self.mu} islands, lam={self.lam}, "
            f"migrate_every={self.migration_interval})"
        )
