"""The (mu + lambda) / (mu, lambda) evolution-strategy engine.

Generic over genomes and fitness functions; EMTS instantiates it with
allocation-vector genomes, the Eq. 1 mutation operator and the
list-scheduling makespan as fitness.  Per generation (paper Section
III-E):

1. draw ``lambda`` offspring as one ``(lambda, V)`` block, each row by
   mutating a uniformly chosen parent;
2. evaluate the block (``lambda`` fitness calls — the ``U * mu *
   lambda * C_map`` term of the paper's complexity analysis is an upper
   bound; the engine evaluates each individual exactly once);
3. select the ``mu`` survivors (plus: from parents ∪ offspring, comma:
   from offspring only) by a stable ranking of their fitness; only the
   selected rows become :class:`~repro.ea.Individual` objects.

:meth:`EvolutionStrategy._run` is the only generation loop: the island
model (:mod:`repro.core.islands`) runs inside it and replaces only the
three population steps (:meth:`~EvolutionStrategy._first_parents`,
:meth:`~EvolutionStrategy._offspring`,
:meth:`~EvolutionStrategy._survivors`).  The engine reports
per-generation statistics and enforces arbitrary termination criteria.
Fitness functions may return ``inf`` to reject an individual.

Under plus selection every generation's batch carries the worst current
parent's fitness as ``abort_above`` (the paper's Section VI rejection
strategy): an offspring survives only by beating a parent outright, ties
going to parents, so one whose makespan provably reaches that bound is
never selected and a batch fitness may stop mapping it and return
``inf``.  Answers are those of scoring every offspring to the end.
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
from .selection import best_of, plus_selection, ranked
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
    "evaluate_block",
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


def evaluate_block(
    genome_block: np.ndarray,
    fitness: Fitness,
    abort_above: float | None = None,
) -> np.ndarray:
    """Fitness of every row of a ``(B, V)`` genome block, as a vector.

    ``fitness`` is either a :class:`BatchFitness`, which receives the
    block unchanged together with ``abort_above``, or a plain
    per-genome callable, which gets no bound.  NaN is never comparable,
    so it degrades to a rejection (``+inf``): the genome is discarded
    and the run continues on the remaining finite candidates.
    """
    evaluate_batch = getattr(fitness, "evaluate_batch", None)
    if evaluate_batch is not None:
        values = evaluate_batch(genome_block, abort_above=abort_above)
        if len(values) != len(genome_block):
            raise ConfigurationError(
                f"batch evaluator returned {len(values)} values "
                f"for {len(genome_block)} genomes"
            )
    else:
        values = [fitness(genome) for genome in genome_block]
    fits = np.array(values, dtype=np.float64)
    nan = np.isnan(fits)
    if nan.any():
        fits[nan] = math.inf
        _log.warning(
            "fitness backend returned NaN for %d of %d genomes; "
            "treating them as rejected (+inf)",
            int(nan.sum()),
            len(fits),
        )
    return fits


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
            Either form may produce ``inf`` to reject an individual;
            under plus selection a batch evaluator also receives each
            generation's rejection bound, the worst parent's fitness.
        rng:
            Random source for parent choice and operators.
        termination:
            Stop condition; defaults to ``GenerationLimit(total_generations)``.
        total_generations:
            The annealing horizon ``U`` handed to the mutation operator;
            defaults to the smallest generation limit in
            ``termination`` (:func:`~repro.ea.termination.annealing_horizon`).
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
        return self._run(
            initial,
            fitness,
            rng,
            termination=termination,
            total_generations=total_generations,
            on_generation_end=on_generation_end,
            resume_log=resume_log,
            start_generation=start_generation,
        )

    def _run(
        self,
        initial: Sequence[Individual],
        fitness: Fitness,
        rng,
        termination: TerminationCriterion | None = None,
        total_generations: int | None = None,
        on_generation_end=None,
        resume_log: EvolutionLog | None = None,
        start_generation: int = 0,
    ) -> EvolutionResult:
        """The generation loop shared by every population model.

        ``rng`` is whatever :meth:`_offspring` draws from.  A subclass
        changes the model through :meth:`_first_parents`,
        :meth:`_offspring` and :meth:`_survivors` only.
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
            parents = list(initial)
            unevaluated = sum(not ind.evaluated for ind in parents)
            if unevaluated:
                raise ConfigurationError(
                    f"resumed population contains {unevaluated} "
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
            todo = [ind for ind in population if not ind.evaluated]
            if todo:
                fits = evaluate_block(
                    np.stack([ind.genome for ind in todo]), fitness
                )
                for ind, value in zip(todo, fits.tolist()):
                    ind.fitness = value
            parents = self._first_parents(
                plus_selection(
                    population, [], min(self.mu, len(population))
                )
            )
            log.append(
                GenerationStats.from_population(
                    0,
                    parents,
                    len(todo),
                    time.perf_counter() - t0,
                )
            )
            if on_generation_end is not None:
                on_generation_end(parents, 0, log)
            generation = 0

        plus = self.selection == "plus"
        while not termination.should_stop(log):
            generation += 1
            t0 = time.perf_counter()
            block = self._offspring(
                parents, rng, generation, total_generations
            )
            # with mu parents, an offspring that ties the worst of them
            # ranks behind all mu and is never selected
            bound = (
                max(ind.fitness for ind in parents)
                if plus and len(parents) == self.mu
                else None
            )
            fits = evaluate_block(block, fitness, bound)
            parents = self._survivors(parents, block, fits, generation)
            log.append(
                GenerationStats.from_population(
                    generation,
                    parents,
                    len(block),
                    time.perf_counter() - t0,
                )
            )
            if on_generation_end is not None:
                on_generation_end(parents, generation, log)

        return EvolutionResult(
            best=best_of(parents), population=parents, log=log
        )

    @staticmethod
    def _child(
        block: np.ndarray, fits: np.ndarray, row: int, generation: int
    ) -> Individual:
        """Row ``row`` of a generation's offspring block, selected."""
        return Individual(
            genome=block[row],
            fitness=fits[row],
            origin="mutation",
            generation=generation,
        )

    # -- the panmictic (mu + lambda) / (mu, lambda) population ---------
    def _first_parents(self, starters: list[Individual]) -> list[Individual]:
        """The generation-0 parents, given the best starters in order."""
        return starters

    def _offspring(
        self,
        parents: list[Individual],
        rng: np.random.Generator,
        generation: int,
        total_generations: int,
    ) -> np.ndarray:
        """The generation's ``(lam, V)`` offspring block.

        One operator call, with the draws of picking a parent and
        mutating it, child by child.
        """
        _, block = self.mutation.offspring(
            np.stack([ind.genome for ind in parents]),
            self.lam,
            rng,
            generation,
            total_generations,
        )
        return block

    def _survivors(
        self,
        parents: list[Individual],
        block: np.ndarray,
        fits: np.ndarray,
        generation: int,
    ) -> list[Individual]:
        """The ``mu`` best of parents-then-offspring (plus) or of the
        offspring (comma); only the selected rows become individuals."""
        if self.selection == "plus":
            pool = np.concatenate(([ind.fitness for ind in parents], fits))
            n = len(parents)
        else:
            pool, n = fits, 0
        return [
            parents[k] if k < n else self._child(block, fits, k - n, generation)
            for k in ranked(pool, self.mu).tolist()
        ]
