"""Generic evolution-strategy engine (paper Section III).

Built from scratch (the offline environment has no DEAP): individuals,
plus/comma survivor selection, mutation operators, per-generation
statistics and composable termination criteria.

Public API: :class:`EvolutionStrategy`, :class:`EvolutionResult`,
:class:`Individual`, the operators and the termination criteria.
"""

from .individual import Individual
from .operators import MutationOperator, UniformIntegerMutation
from .selection import best_of, comma_selection, plus_selection
from .statistics import EvolutionLog, GenerationStats, population_diversity
from .strategy import BatchFitness, EvolutionResult, EvolutionStrategy
from .termination import (
    AnyOf,
    Deadline,
    GenerationLimit,
    StagnationLimit,
    StopFlag,
    TargetFitness,
    TerminationCriterion,
    TimeBudget,
)

__all__ = [
    "Individual",
    "MutationOperator",
    "UniformIntegerMutation",
    "plus_selection",
    "comma_selection",
    "best_of",
    "GenerationStats",
    "EvolutionLog",
    "population_diversity",
    "TerminationCriterion",
    "GenerationLimit",
    "TimeBudget",
    "Deadline",
    "StopFlag",
    "TargetFitness",
    "StagnationLimit",
    "AnyOf",
    "EvolutionStrategy",
    "EvolutionResult",
    "BatchFitness",
]
