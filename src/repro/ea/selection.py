"""Survivor selection for evolution strategies.

The paper uses a **plus strategy** ("(mu + lambda)-EA"): the ``mu`` best
of the union of parents and offspring survive, so the best solution found
is always conserved and the population can never get worse across
generations (Schwefel & Rudolph).  A **comma strategy** (survivors drawn
from the offspring only) is provided for the selection ablation — it
trades the monotonicity guarantee for better escape from local optima.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from .individual import Individual

__all__ = ["ranked", "plus_selection", "comma_selection", "best_of"]


def ranked(fitness, mu: int) -> np.ndarray:
    """Indices of the ``mu`` smallest ``fitness`` values, best first.

    A stable sort: among equal values the lower index wins, so a pool
    laid out parents-then-offspring (older before younger) keeps runs
    deterministic and mildly favours proven solutions.
    """
    if mu < 1:
        raise ConfigurationError(f"mu must be >= 1, got {mu}")
    fitness = np.asarray(fitness, dtype=np.float64)
    if fitness.shape[0] < mu:
        raise ConfigurationError(
            f"cannot select {mu} survivors from a pool of "
            f"{fitness.shape[0]}"
        )
    return np.argsort(fitness, kind="stable")[:mu]


def plus_selection(
    parents: list[Individual],
    offspring: list[Individual],
    mu: int,
) -> list[Individual]:
    """The mu best of parents ∪ offspring (elitist; never regresses)."""
    pool = list(parents) + list(offspring)
    order = ranked([ind.evaluated_fitness() for ind in pool], mu)
    return [pool[i] for i in order.tolist()]


def comma_selection(
    parents: list[Individual],
    offspring: list[Individual],
    mu: int,
) -> list[Individual]:
    """The mu best of the offspring only (requires lambda >= mu)."""
    if len(offspring) < mu:
        raise ConfigurationError(
            f"comma selection needs at least mu={mu} offspring, got "
            f"{len(offspring)}"
        )
    return plus_selection([], offspring, mu)


def best_of(pool: list[Individual]) -> Individual:
    """The single fittest individual of ``pool``."""
    if not pool:
        raise ConfigurationError("cannot take the best of an empty pool")
    return min(pool, key=lambda ind: ind.evaluated_fitness())
