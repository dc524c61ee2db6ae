"""The (mu + lambda) / (mu, lambda) evolution-strategy engine.

Generic over genomes and fitness functions; EMTS instantiates it with
allocation-vector genomes, the Eq. 1 mutation operator and the
list-scheduling makespan as fitness.  Per generation (paper Section
III-E):

1. draw ``lambda`` offspring, each by mutating a uniformly chosen parent;
2. evaluate the offspring (``lambda`` fitness calls — the ``U * mu *
   lambda * C_map`` term of the paper's complexity analysis is an upper
   bound; the engine evaluates each individual exactly once);
3. select the ``mu`` survivors (plus: from parents ∪ offspring, comma:
   from offspring only).

The engine reports per-generation statistics and enforces arbitrary
termination criteria.  Fitness functions may return ``inf`` to reject an
individual (the mapper's ``abort_above`` rejection strategy does this).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.log import get_logger
from .individual import Individual
from .operators import MutationOperator
from .selection import best_of, comma_selection, plus_selection
from .statistics import EvolutionLog, GenerationStats
from .termination import (
    GenerationLimit,
    TerminationCriterion,
    annealing_horizon,
)

__all__ = [
    "EvolutionStrategy",
    "EvolutionResult",
    "BatchFitness",
    "evaluate_individuals",
]

_log = get_logger("ea")

FitnessFunction = Callable[[np.ndarray], float]


class BatchFitness(Protocol):
    """Batch fitness backend (see :mod:`repro.core.evaluator`).

    Anything with an ``evaluate_batch(genome_block, abort_above=None)
    -> list[float]`` method qualifies; the engine hands it each
    generation's offspring as one stacked ``(B, V)`` block.
    """

    def evaluate_batch(
        self,
        genome_block: np.ndarray,
        abort_above: float | None = None,
    ) -> list[float]:
        """Fitness of every row, in order; ``inf`` rejects."""
        ...


Fitness = Union[FitnessFunction, BatchFitness]


def evaluate_individuals(
    individuals: Sequence[Individual],
    fitness: Fitness,
    abort_above: float | None = None,
) -> int:
    """Assign fitness to the unevaluated ``individuals``.

    ``fitness`` is either a :class:`BatchFitness`, which receives the
    genomes as one stacked block together with ``abort_above``, or a
    plain per-genome callable.  NaN is never comparable, so it degrades
    to a rejection (``+inf``): the individual is discarded and the run
    continues on the remaining finite candidates.  Returns the number
    of genomes submitted.
    """
    todo = [ind for ind in individuals if not ind.evaluated]
    if not todo:
        return 0
    evaluate_batch = getattr(fitness, "evaluate_batch", None)
    if evaluate_batch is not None:
        values = evaluate_batch(
            np.stack([ind.genome for ind in todo]),
            abort_above=abort_above,
        )
        if len(values) != len(todo):
            raise ConfigurationError(
                f"batch evaluator returned {len(values)} values "
                f"for {len(todo)} genomes"
            )
    else:
        values = [fitness(ind.genome) for ind in todo]
    nan_count = 0
    for ind, value in zip(todo, values):
        value = float(value)
        if math.isnan(value):
            nan_count += 1
            value = math.inf
        ind.fitness = value
    if nan_count:
        _log.warning(
            "fitness backend returned NaN for %d of %d genomes; "
            "treating them as rejected (+inf)",
            nan_count,
            len(todo),
        )
    return len(todo)


@dataclass
class EvolutionResult:
    """Outcome of one evolution-strategy run."""

    best: Individual
    population: list[Individual]
    log: EvolutionLog

    @property
    def best_fitness(self) -> float:
        """Fitness of the best individual found."""
        return self.best.evaluated_fitness()

    @property
    def generations(self) -> int:
        """Number of evolutionary steps executed."""
        return self.log.generations - 1  # entry 0 is the initial population

    @property
    def evaluations(self) -> int:
        """Total number of fitness evaluations."""
        return self.log.total_evaluations


class EvolutionStrategy:
    """A (mu + lambda) or (mu, lambda) evolution strategy.

    Parameters
    ----------
    mu:
        Number of parents kept in the population.
    lam:
        Number of offspring generated per generation.
    mutation:
        The variation operator applied to every offspring (EMTS is
        mutation-only, Section III-C).
    selection:
        ``"plus"`` (elitist, the paper's choice) or ``"comma"``.
    """

    def __init__(
        self,
        mu: int,
        lam: int,
        mutation: MutationOperator,
        selection: str = "plus",
    ) -> None:
        if mu < 1:
            raise ConfigurationError(f"mu must be >= 1, got {mu}")
        if lam < 1:
            raise ConfigurationError(f"lambda must be >= 1, got {lam}")
        if selection not in ("plus", "comma"):
            raise ConfigurationError(
                f"selection must be 'plus' or 'comma', got {selection!r}"
            )
        if selection == "comma" and lam < mu:
            raise ConfigurationError(
                f"comma selection needs lambda >= mu ({lam} < {mu})"
            )
        self.mu = int(mu)
        self.lam = int(lam)
        self.mutation = mutation
        self.selection = selection

    def evolve(
        self,
        initial: Sequence[Individual],
        fitness: Fitness,
        rng: np.random.Generator,
        termination: TerminationCriterion | None = None,
        total_generations: int | None = None,
        abort_bound=None,
        on_generation_end=None,
        resume_log: EvolutionLog | None = None,
        start_generation: int = 0,
    ) -> EvolutionResult:
        """Run the strategy from the given starting individuals.

        Parameters
        ----------
        initial:
            Starting individuals (EMTS: the heuristic seeds plus mutated
            copies); padded/truncated to ``mu`` after evaluation.  When
            resuming (``resume_log`` given) this is the checkpointed
            survivor population, already evaluated.
        fitness:
            Objective to minimize — either a plain per-genome callable
            or a batch evaluator implementing :class:`BatchFitness`.
            Either form may produce ``inf`` to reject an individual.
        rng:
            Random source for parent choice and operators.
        termination:
            Stop condition; defaults to ``GenerationLimit(total_generations)``.
        total_generations:
            The annealing horizon ``U`` handed to the mutation operator;
            defaults to the smallest generation limit in
            ``termination`` (:func:`~repro.ea.termination.annealing_horizon`).
        abort_bound:
            Optional callable ``parents -> float | None`` queried once
            per generation; a finite return value is forwarded to the
            batch evaluator as ``abort_above`` (the rejection strategy's
            cutoff, re-derived from the current survivor set).  Ignored
            for plain callables, which handle rejection internally.
        on_generation_end:
            Optional hook called with ``(population, generation, log)``
            after each generation's survivors are selected and logged
            (and once for the initial population, with generation 0).
            EMTS uses this to journal checkpoints at every generation
            boundary.
        resume_log:
            A restored :class:`EvolutionLog` from a checkpoint.  When
            given, ``initial`` is taken as the already-evaluated
            survivor population: the initial-evaluation/selection step
            is skipped and the loop continues the restored history,
            keeping generation accounting (and ``GenerationLimit``)
            exact across the interruption.
        start_generation:
            Index of the last completed generation when resuming; the
            loop continues at ``start_generation + 1``.
        """
        if not initial:
            raise ConfigurationError("need at least one initial individual")
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
            # continuing a checkpointed run: the survivors arrive
            # evaluated and the restored log already holds their
            # generation-0..start_generation history
            log = resume_log
            population = list(initial)
            unevaluated = [
                ind for ind in population if not ind.evaluated
            ]
            if unevaluated:
                raise ConfigurationError(
                    f"resumed population contains {len(unevaluated)} "
                    f"unevaluated individuals"
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
            population = plus_selection(
                population, [], min(self.mu, len(population))
            )
            log.append(
                GenerationStats.from_population(
                    0,
                    population,
                    evals,
                    time.perf_counter() - t0,
                )
            )
            if on_generation_end is not None:
                on_generation_end(population, 0, log)
            generation = 0

        while not termination.should_stop(log):
            generation += 1
            bound = (
                abort_bound(population)
                if abort_bound is not None
                else None
            )
            t0 = time.perf_counter()
            # the whole generation in one operator call, with the draws
            # of picking a parent and mutating it, child by child
            index, children = self.mutation.offspring(
                np.stack([ind.genome for ind in population]),
                self.lam,
                rng,
                generation,
                total_generations,
            )
            offspring = [
                population[i].with_genome(child, "mutation", generation)
                for i, child in zip(index.tolist(), children)
            ]
            evals = evaluate_individuals(offspring, fitness, bound)
            if self.selection == "plus":
                population = plus_selection(
                    population, offspring, self.mu
                )
            else:
                population = comma_selection(
                    population, offspring, self.mu
                )
            log.append(
                GenerationStats.from_population(
                    generation,
                    population,
                    evals,
                    time.perf_counter() - t0,
                )
            )
            if on_generation_end is not None:
                on_generation_end(population, generation, log)

        return EvolutionResult(
            best=best_of(population), population=population, log=log
        )
