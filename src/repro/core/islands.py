"""Island-model EMTS: sharded (1+lambda_i) sub-populations with ring
migration.

The classic engine (:class:`repro.ea.EvolutionStrategy`) evolves one
panmictic (mu + lambda) population.  The island model decomposes the
same search into ``mu`` *logical islands*, each a (1 + lambda_i)
evolution strategy around one parent slot, with

``lambda_i = lam // mu + (1 if i < lam % mu else 0)``

so the per-generation offspring budget is exactly ``lam``, as in the
panmictic run.  Every ``migration_interval`` generations the islands
exchange individuals along a ring: island ``i`` receives the
previous-generation parent of island ``(i - 1) % mu`` as an extra
plus-selection candidate.  Migration is elitist and synchronous, so the
whole trajectory is a pure function of the seed.

Determinism contract
--------------------
The logical decomposition is **fixed at mu islands** regardless of the
``islands`` execution parameter.  ``islands = k`` only groups the
logical islands into ``k`` contiguous execution shards — one
population-at-once ``evaluate_batch`` call per shard per generation.
Fitness evaluation is deterministic and the mutation stream of island
``i`` comes from its own child generator (derived once from the master
RNG via :func:`repro._rng.spawn_children`), so the result is
bit-identical for any ``k`` in ``{1, ..., mu}``, any kernel thread
count and either kernel backend.  ``islands = 0`` selects the classic
panmictic engine (a different — also deterministic — trajectory).

Each island runs plus selection over ``[parent (+ migrant)] ∪
offspring`` with ties resolved in that candidate order (stable sort),
matching the classic engine's tie rule: parents win ties, migrants beat
equal offspring.
"""

from __future__ import annotations

import time

import numpy as np

from ..ea import EvolutionLog, GenerationStats, Individual
from ..ea.operators import MutationOperator
from ..ea.selection import best_of, plus_selection
from ..ea.strategy import EvolutionResult, Fitness, evaluate_individuals
from ..ea.termination import (
    GenerationLimit,
    TerminationCriterion,
    annealing_horizon,
)
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


def _shard_bounds(num_islands: int, shards: int) -> list[tuple[int, int]]:
    """Group ``num_islands`` logical islands into contiguous shards."""
    shards = max(1, min(shards, num_islands))
    counts = island_offspring_counts(num_islands, shards)
    bounds = []
    start = 0
    for c in counts:
        bounds.append((start, start + c))
        start += c
    return bounds


class IslandStrategy:
    """Ring-migration island model over ``mu`` single-parent islands.

    Parameters
    ----------
    mu:
        Number of logical islands (= parent slots = the classic mu).
    lam:
        Total offspring per generation, split across islands.
    mutation:
        The variation operator applied to every offspring.
    migration_interval:
        Generations between ring migrations (>= 1; at every multiple,
        island ``i`` also considers island ``i-1``'s previous parent).
    shards:
        Execution sharding ``k``: offspring are evaluated in ``k``
        contiguous island groups, one ``evaluate_batch`` call each.
        Pure execution knob — has no effect on the result.
    """

    def __init__(
        self,
        mu: int,
        lam: int,
        mutation: MutationOperator,
        migration_interval: int = 1,
        shards: int = 1,
    ) -> None:
        if mu < 1:
            raise ConfigurationError(f"mu must be >= 1, got {mu}")
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
        if shards < 1:
            raise ConfigurationError(
                f"islands (execution shards) must be >= 1, got {shards}"
            )
        self.mu = int(mu)
        self.lam = int(lam)
        self.mutation = mutation
        self.migration_interval = int(migration_interval)
        self.shards = int(shards)
        self.offspring_counts = island_offspring_counts(lam, mu)

    # ------------------------------------------------------------------
    def evolve(
        self,
        initial: list[Individual],
        fitness: Fitness,
        island_rngs: list[np.random.Generator],
        termination: TerminationCriterion | None = None,
        total_generations: int | None = None,
        abort_bound=None,
        on_generation_end=None,
        resume_log: EvolutionLog | None = None,
        start_generation: int = 0,
    ) -> EvolutionResult:
        """Run the island model from the given starting individuals.

        ``island_rngs`` must hold exactly ``mu`` generators — one
        mutation stream per island (the caller derives them from the
        master RNG, or restores them from a checkpoint).  The population
        reported in logs, hooks and the result is always the ordered
        list of island parents, so checkpoints capture island ``i``'s
        parent at index ``i``.
        """
        if not initial:
            raise ConfigurationError(
                "need at least one initial individual"
            )
        if len(island_rngs) != self.mu:
            raise ConfigurationError(
                f"island model needs exactly {self.mu} RNG streams, "
                f"got {len(island_rngs)}"
            )
        if termination is None:
            if total_generations is None:
                raise ConfigurationError(
                    "provide either a termination criterion or "
                    "total_generations"
                )
            termination = GenerationLimit(total_generations)
        total_generations = annealing_horizon(termination, total_generations)
        termination.start()

        if resume_log is not None:
            log = resume_log
            parents = list(initial)
            if any(not ind.evaluated for ind in parents):
                raise ConfigurationError(
                    "resumed population contains unevaluated "
                    "individuals"
                )
            if len(parents) != self.mu:
                raise ConfigurationError(
                    f"resumed island population holds {len(parents)} "
                    f"parents, expected {self.mu}"
                )
            generation = int(start_generation)
        else:
            log = EvolutionLog()
            t0 = time.perf_counter()
            population = [
                Individual(
                    genome=ind.genome,
                    fitness=ind.fitness,
                    origin=ind.origin,
                    generation=0,
                )
                for ind in initial
            ]
            evals = evaluate_individuals(population, fitness)
            # the initial global selection doubles as the island
            # assignment: the i-th survivor becomes island i's parent
            # (cycled when there are fewer starters than islands)
            survivors = plus_selection(
                population, [], min(self.mu, len(population))
            )
            parents = [
                survivors[i % len(survivors)] for i in range(self.mu)
            ]
            log.append(
                GenerationStats.from_population(
                    0,
                    parents,
                    evals,
                    time.perf_counter() - t0,
                )
            )
            if on_generation_end is not None:
                on_generation_end(parents, 0, log)
            generation = 0

        shard_bounds = _shard_bounds(self.mu, self.shards)
        while not termination.should_stop(log):
            generation += 1
            bound = (
                abort_bound(parents)
                if abort_bound is not None
                else None
            )
            t0 = time.perf_counter()
            per_island: list[list[Individual]] = []
            for i in range(self.mu):
                parent = parents[i]
                # one parent: the block call draws no parent index
                _, children = self.mutation.offspring(
                    parent.genome[np.newaxis],
                    self.offspring_counts[i],
                    island_rngs[i],
                    generation,
                    total_generations,
                )
                per_island.append(
                    [
                        parent.with_genome(child, "mutation", generation)
                        for child in children
                    ]
                )
            evals = 0
            for lo, hi in shard_bounds:
                shard_offspring = [
                    ind for island in per_island[lo:hi] for ind in island
                ]
                evals += evaluate_individuals(
                    shard_offspring, fitness, bound
                )
            migrating = (
                self.mu > 1
                and generation % self.migration_interval == 0
            )
            previous = parents
            new_parents = []
            for i in range(self.mu):
                candidates = [previous[i]]
                if migrating:
                    # ring migration: the neighbour's *previous*
                    # generation parent, so exchange is synchronous
                    # and independent of island evaluation order
                    candidates.append(previous[(i - 1) % self.mu])
                new_parents.append(
                    plus_selection(candidates, per_island[i], 1)[0]
                )
            parents = new_parents
            log.append(
                GenerationStats.from_population(
                    generation,
                    parents,
                    evals,
                    time.perf_counter() - t0,
                )
            )
            if on_generation_end is not None:
                on_generation_end(parents, generation, log)

        return EvolutionResult(
            best=best_of(parents), population=parents, log=log
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IslandStrategy({self.mu} islands, lam={self.lam}, "
            f"migrate_every={self.migration_interval}, "
            f"shards={self.shards})"
        )
