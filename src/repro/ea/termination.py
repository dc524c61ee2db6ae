"""Termination criteria for the evolution strategy.

The paper runs EMTS for a fixed number of generations (EMTS5: 5, EMTS10:
10) but frames the whole design around "a given time constraint"
(Section II-C) — the EA must be usable under real-world scheduling
deadlines.  Criteria compose with OR semantics via
:class:`AnyOf`.
"""

from __future__ import annotations

import abc
import time

from ..exceptions import ConfigurationError
from .statistics import EvolutionLog

__all__ = [
    "annealing_horizon",
    "TerminationCriterion",
    "GenerationLimit",
    "TimeBudget",
    "Deadline",
    "StopFlag",
    "TargetFitness",
    "StagnationLimit",
    "AnyOf",
]


class TerminationCriterion(abc.ABC):
    """Decides after each generation whether the run should stop."""

    def start(self) -> None:
        """Called once before generation 1 (resets internal clocks)."""

    @abc.abstractmethod
    def should_stop(self, log: EvolutionLog) -> bool:
        """True once the run should terminate."""


class GenerationLimit(TerminationCriterion):
    """Stop after ``limit`` generations (the paper's U)."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(
                f"generation limit must be >= 1, got {limit}"
            )
        self.limit = int(limit)

    def should_stop(self, log: EvolutionLog) -> bool:
        # the log contains one entry for the initial population
        # (generation 0) plus one per evolutionary step
        return log.generations - 1 >= self.limit


class TimeBudget(TerminationCriterion):
    """Stop once ``seconds`` of wall-clock time have elapsed."""

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ConfigurationError(
                f"time budget must be > 0 s, got {seconds}"
            )
        self.seconds = float(seconds)
        self._t0: float | None = None

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def should_stop(self, log: EvolutionLog) -> bool:
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return (time.perf_counter() - self._t0) >= self.seconds


class Deadline(TerminationCriterion):
    """Stop once an absolute :func:`time.perf_counter` instant passes.

    Unlike :class:`TimeBudget` (whose clock starts at ``start()``, i.e.
    at the beginning of the evolutionary loop), a deadline is anchored
    by the caller — EMTS pins it to the start of the whole run, so
    seeding time and, on resume, wall-clock already spent count against
    the budget.  ``start()`` deliberately does not reset it.
    """

    def __init__(self, at: float) -> None:
        self.at = float(at)

    def expired(self) -> bool:
        """True once the deadline instant has passed."""
        return time.perf_counter() >= self.at

    def should_stop(self, log: EvolutionLog) -> bool:
        return self.expired()


class StopFlag(TerminationCriterion):
    """Stop once an external flag (``threading.Event``-like) is set.

    The graceful-shutdown channel: a SIGINT/SIGTERM handler or an
    operator thread sets the flag and the run ends at the next
    generation boundary with its population and log intact.
    """

    def __init__(self, event) -> None:
        if not callable(getattr(event, "is_set", None)):
            raise ConfigurationError(
                "StopFlag needs an object with an is_set() method "
                "(e.g. threading.Event)"
            )
        self.event = event

    def should_stop(self, log: EvolutionLog) -> bool:
        return bool(self.event.is_set())


class TargetFitness(TerminationCriterion):
    """Stop once the best fitness reaches ``target`` (for tests/studies)."""

    def __init__(self, target: float) -> None:
        self.target = float(target)

    def should_stop(self, log: EvolutionLog) -> bool:
        if not log.entries:
            return False
        return log.entries[-1].best <= self.target


class StagnationLimit(TerminationCriterion):
    """Stop after ``patience`` generations without improvement."""

    def __init__(self, patience: int, rel_tol: float = 1e-9) -> None:
        if patience < 1:
            raise ConfigurationError(
                f"patience must be >= 1, got {patience}"
            )
        self.patience = int(patience)
        self.rel_tol = float(rel_tol)

    def should_stop(self, log: EvolutionLog) -> bool:
        if log.generations <= self.patience:
            return False
        traj = log.best_trajectory()
        recent, anchor = traj[-1], traj[-1 - self.patience]
        return recent >= anchor * (1.0 - self.rel_tol)


class AnyOf(TerminationCriterion):
    """Stop as soon as any of the wrapped criteria fires."""

    def __init__(self, *criteria: TerminationCriterion) -> None:
        if not criteria:
            raise ConfigurationError("AnyOf needs at least one criterion")
        self.criteria = criteria

    def start(self) -> None:
        for c in self.criteria:
            c.start()

    def should_stop(self, log: EvolutionLog) -> bool:
        return any(c.should_stop(log) for c in self.criteria)


def _generation_limits(criterion: TerminationCriterion):
    if isinstance(criterion, GenerationLimit):
        yield criterion.limit
    elif isinstance(criterion, AnyOf):
        for inner in criterion.criteria:
            yield from _generation_limits(inner)


def annealing_horizon(
    termination: TerminationCriterion, total_generations: int | None
) -> int:
    """The annealing horizon ``U`` a run hands its mutation operator.

    An explicit ``total_generations`` wins.  Otherwise ``U`` is the
    smallest :class:`GenerationLimit` in ``termination``, looked up
    through :class:`AnyOf` — no run outlasts it.  With neither, the
    mutation width ``(1 - u/U) f_m V`` is undefined, so this raises
    :class:`ConfigurationError` before the first generation.
    """
    if total_generations is not None:
        return int(total_generations)
    horizon = min(_generation_limits(termination), default=None)
    if horizon is None:
        raise ConfigurationError(
            "no annealing horizon: pass total_generations, or a "
            "GenerationLimit (alone or inside AnyOf) as termination"
        )
    return horizon
