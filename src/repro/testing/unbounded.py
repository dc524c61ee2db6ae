"""The no-rejection reference of the rejection strategy.

Under plus selection every generation's batch carries the worst
parent's fitness as ``abort_above``.  :class:`Unbounded` drops it, so
every genome is mapped to the end: the run a bounded one must match::

    emts5().schedule(ptg, cluster, model, rng=7, evaluator_wrapper=Unbounded)
"""

from __future__ import annotations

__all__ = ["Unbounded"]


class Unbounded:
    """Evaluator proxy that ignores ``abort_above``."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def evaluate_batch(self, genome_block, abort_above=None) -> list[float]:
        return self.inner.evaluate_batch(genome_block)

    def __getattr__(self, name):
        return getattr(self.inner, name)
