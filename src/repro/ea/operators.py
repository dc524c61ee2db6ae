"""Variation-operator protocol and generic integer-vector operators.

EMTS is mutation-only (paper Section III-C: crossover on allocation
vectors of *dependent* tasks rarely helps, and mutation-only strategies
are known to suffice for several combinatorial problems), so the engine
has one kind of variation operator:

* :class:`MutationOperator` — the protocol (genome in, genome out, or a
  whole generation's offspring from a block of parents);
* :class:`UniformIntegerMutation` — resample positions uniformly in the
  domain (the naive operator Section III-D argues against).

EMTS's actual operator (Eq. 1 with the annealed mutation count) lives in
:mod:`repro.core.mutation` because it is paper-specific.
"""

from __future__ import annotations

import abc

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "per_child_offspring",
    "MutationOperator",
    "UniformIntegerMutation",
]


def per_child_offspring(
    parents: np.ndarray,
    count: int,
    rng: np.random.Generator,
    mutate_one,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` children of a ``(n, V)`` parent block, one at a time.

    Child ``k`` draws its parent with ``rng.integers(n)`` (no draw when
    ``n == 1``, as ``integers(1)`` consumes nothing) and then
    ``mutate_one(parents[i])`` makes it, so the random stream is that of
    a loop which picks a parent and mutates it, child by child.
    """
    n = parents.shape[0]
    index = np.zeros(count, dtype=np.int64)
    children = np.empty((count, parents.shape[1]), dtype=np.int64)
    for k in range(count):
        i = int(rng.integers(n)) if n > 1 else 0
        index[k] = i
        children[k] = mutate_one(parents[i])
    return index, children


class MutationOperator(abc.ABC):
    """Produces a child genome from one parent genome."""

    @abc.abstractmethod
    def mutate(
        self,
        genome: np.ndarray,
        rng: np.random.Generator,
        generation: int,
        total_generations: int,
    ) -> np.ndarray:
        """Return a *new* genome (the parent's array is read-only).

        ``generation`` / ``total_generations`` let operators anneal their
        step size over the run, as EMTS's operator does.
        """

    def offspring(
        self,
        parents: np.ndarray,
        count: int,
        rng: np.random.Generator,
        generation: int,
        total_generations: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A generation's offspring: ``(parent_index, children)``.

        ``parents`` is an ``(n, V)`` block; child ``k`` (row ``k`` of
        ``children``) mutates ``parents[parent_index[k]]``, a parent
        drawn uniformly just before the child is made.  This default is
        the per-child loop over :meth:`mutate`; an override may make the
        block another way but must consume ``rng`` identically.
        """
        return per_child_offspring(
            np.asarray(parents),
            count,
            rng,
            lambda genome: self.mutate(
                genome, rng, generation, total_generations
            ),
        )


class UniformIntegerMutation(MutationOperator):
    """Resample a fraction of positions uniformly in ``[low, high]``.

    This is the "any uniform distribution could be applied" baseline of
    paper Section III-D; the ablation benchmarks show it converges worse
    than Eq. 1 because a change by ``k`` processors is as likely as a
    change by 1.
    """

    def __init__(self, low: int, high: int, rate: float = 0.33) -> None:
        if low > high:
            raise ConfigurationError(
                f"low ({low}) must be <= high ({high})"
            )
        if not (0.0 < rate <= 1.0):
            raise ConfigurationError(
                f"rate must lie in (0, 1], got {rate}"
            )
        self.low = int(low)
        self.high = int(high)
        self.rate = float(rate)

    def mutate(
        self,
        genome: np.ndarray,
        rng: np.random.Generator,
        generation: int,
        total_generations: int,
    ) -> np.ndarray:
        child = np.array(genome, copy=True)
        n = child.shape[0]
        m = max(1, int(round(self.rate * n)))
        pos = rng.choice(n, size=min(m, n), replace=False)
        child[pos] = rng.integers(
            self.low, self.high + 1, size=pos.shape[0]
        )
        return child
