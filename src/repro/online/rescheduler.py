"""Frontier rescheduling under a bounded reaction budget.

When the monitor fires, only the **frontier** — tasks that have not yet
started (including those waiting out a retry backoff) — can still be
moved; everything running or done is sunk cost.  The rescheduler
re-plans exactly that frontier against the *current* cluster state:

* per-task **release times** (``max`` of the reschedule instant, retry
  eligibility, and the expected finishes of running predecessors);
* per-processor **availability** over the *alive* processors only
  (the monitor's expected finish of whatever occupies each one — for an
  undetected straggler that is the model's prediction, not the oracle's
  truth: the rescheduler knows only what the monitor knows).

Because the cluster is homogeneous, processor identity is irrelevant to
allocation decisions: the frontier sub-problem over ``P_alive``
processors is itself a well-formed instance of the paper's moldable
scheduling problem, so the offline machinery (CPA-family allocators,
EMTS's seeded evolution) applies unchanged, and so does the mapper: the
library's reference list scheduler
(:func:`repro.mapping.list_scheduler._run`), given the frontier's
release times and the alive processors' availability.

The three ladder rungs (see :mod:`repro.online.policies`) share that
one mapper, so every rung's plan is directly comparable and the budget
is counted in identical units.  The incumbent plan is always
evaluated alongside whatever a rung proposes and wins ties, which makes
rescheduling monotone: an applied plan is never worse than the plan it
replaces *under the information available at that moment*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.mutation import AllocationMutation
from ..core.seeding import make_allocator, seed_population
from ..ea import EvolutionStrategy
from ..exceptions import ConfigurationError
from ..graph import PTG
from ..mapping.list_scheduler import _run
from ..platform import Cluster
from ..timemodels import TimeTable
from .._rng import ensure_generator
from .policies import ReactionPolicy

__all__ = ["Rescheduler", "RescheduleResult"]


@dataclass(frozen=True)
class RescheduleResult:
    """One installed frontier plan.

    ``frontier`` holds original task indices; ``start``/``finish``/
    ``proc_sets`` align with it, processor ids are physical (alive-set
    members).  ``completion`` is the plan's last finish; ``evaluations``
    is what the rung actually consumed from the reaction budget.
    """

    rung: str
    evaluations: int
    completion: float
    frontier: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    proc_sets: list[np.ndarray]
    allocation: np.ndarray


class _FrontierProblem:
    """The frontier as a standalone sub-instance, reindexed to
    ``0..n-1`` local tasks over ``0..P_alive-1`` local processors.

    ``ptg``/``table`` are the frontier's tasks, the precedence edges
    among them (:meth:`PTG.induced <repro.graph.PTG.induced>`, no second
    validation) and their times on the alive processors
    (:meth:`TimeTable.cut <repro.timemodels.TimeTable.cut>`, no second
    check); the offline
    allocators read them as they are, and :meth:`evaluate` maps them
    with the reference mapper under the frontier's release times and
    the alive processors' availability.
    """

    def __init__(
        self,
        ptg: PTG,
        table: TimeTable,
        frontier: np.ndarray,
        release: np.ndarray,
        alive: np.ndarray,
        avail: np.ndarray,
    ) -> None:
        self.release = release
        self.avail = avail
        self.P_alive = int(alive.size)
        self.ptg = ptg.induced(frontier.tolist(), name=f"{ptg.name}/frontier")
        cluster = Cluster(
            name=f"{table.cluster.name}/alive",
            num_processors=self.P_alive,
            speed_gflops=table.cluster.speed_gflops,
        )
        # execution-time rows truncated to the alive count: homogeneity
        # means T(v, s) depends only on s, so columns 0..P_alive-1 of
        # the full table are exactly the feasible sub-instance times
        self.table = table.cut(
            self.ptg, cluster, frontier, f"{table.model_name}/frontier"
        )

    def evaluate(
        self,
        sub_alloc: np.ndarray,
        build: bool = False,
        abort_above: float | None = None,
    ) -> tuple[float, np.ndarray, np.ndarray, list | None]:
        """List-schedule the frontier under release/availability bounds.

        One call of the reference mapper: ``(completion, start, finish,
        local_proc_sets)``, processor indices local (``alive``-relative)
        and only materialised when ``build``; ``(inf, None, None,
        None)`` once a task's start plus its bottom level provably
        reaches ``abort_above``.  ``sub_alloc`` must lie in ``[1,
        P_alive]`` (:class:`~repro.exceptions.AllocationError`
        otherwise).
        """
        return _run(
            self.ptg,
            self.table,
            sub_alloc,
            build,
            abort_above,
            release=self.release,
            avail=self.avail,
        )

    def completion_of(self, sub_alloc: np.ndarray) -> float:
        """Completion time of one frontier allocation, mapped to the end."""
        return self.evaluate(sub_alloc)[0]

    def evaluate_batch(
        self, block: np.ndarray, abort_above: float | None = None
    ) -> list[float]:
        """The evolution rung's batch fitness: every row's completion,
        or ``inf`` once the row provably reaches ``abort_above``."""
        return [
            self.evaluate(row, abort_above=abort_above)[0] for row in block
        ]


class Rescheduler:
    """Re-plans schedule frontiers down the graceful-degradation ladder."""

    def __init__(
        self,
        ptg: PTG,
        table: TimeTable,
        policy: ReactionPolicy | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.ptg = ptg
        self.table = table
        self.policy = policy or ReactionPolicy()
        self.rng = ensure_generator(rng, "online", "rescheduler")

    def reschedule(
        self,
        now: float,
        frontier: np.ndarray,
        release: np.ndarray,
        allocation: np.ndarray,
        alive: np.ndarray,
        avail: np.ndarray,
        remaining_budget: int,
    ) -> RescheduleResult:
        """Produce a new frontier plan within ``remaining_budget``.

        Parameters mirror the runtime's state snapshot: ``frontier`` are
        original task ids (not yet started), ``release``/``allocation``
        align with it, ``alive`` are surviving processor ids with
        ``avail`` their expected availability times.  The rung is chosen
        deterministically from the remaining budget (evaluation units —
        never wall-clock, which would break cross-machine determinism).
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            raise ConfigurationError(
                "cannot reschedule an empty frontier"
            )
        alive = np.asarray(alive, dtype=np.int64)
        if alive.size == 0:
            raise ConfigurationError(
                "cannot reschedule with no alive processors"
            )
        problem = _FrontierProblem(
            self.ptg,
            self.table,
            frontier,
            np.asarray(release, dtype=np.float64),
            alive,
            np.asarray(avail, dtype=np.float64),
        )
        incumbent = np.clip(
            np.asarray(allocation, dtype=np.int64), 1, problem.P_alive
        )
        rung = self.policy.rung_for(remaining_budget)
        if rung == "emts":
            best, evals = self._run_emts(problem, incumbent)
        elif rung == "repair":
            best, evals = self._run_repair(problem, incumbent)
        else:
            best, evals = incumbent, 1
        completion, start, finish, local_sets = problem.evaluate(
            best, build=True
        )
        proc_sets = [alive[chosen] for chosen in local_sets]
        return RescheduleResult(
            rung=rung,
            evaluations=evals,
            completion=float(completion),
            frontier=frontier,
            start=start,
            finish=finish,
            proc_sets=proc_sets,
            allocation=best,
        )

    # -- ladder rungs ---------------------------------------------------
    def _run_repair(
        self, problem: _FrontierProblem, incumbent: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Heuristic repair: best of {repair allocator, incumbent}."""
        allocator = make_allocator(self.policy.repair_heuristic)
        proposal = allocator.allocate(problem.ptg, problem.table)
        proposal_completion = problem.completion_of(proposal)
        incumbent_completion = problem.completion_of(incumbent)
        if proposal_completion < incumbent_completion - 1e-12:
            return proposal, 2
        return incumbent, 2

    def _run_emts(
        self, problem: _FrontierProblem, incumbent: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Warm-started (mu + lambda) evolution over the frontier.

        The incumbent plan seeds the population first, so under plus
        selection the evolved winner can never be worse than the plan
        being replaced.  The strategy hands the problem's batch fitness
        the worst parent as its rejection bound each generation.
        """
        policy = self.policy
        mutation = AllocationMutation(problem.P_alive)
        individuals, _ = seed_population(
            problem.ptg,
            problem.table,
            policy.heuristics,
            policy.emts_mu,
            mutation,
            self.rng,
            incumbent=incumbent,
        )
        strategy = EvolutionStrategy(
            mu=policy.emts_mu,
            lam=policy.emts_lam,
            mutation=mutation,
        )
        result = strategy.evolve(
            individuals,
            problem,
            self.rng,
            total_generations=policy.emts_generations,
        )
        # +1 for the final build-mode evaluation of the winner
        return result.best.genome, result.evaluations + 1
