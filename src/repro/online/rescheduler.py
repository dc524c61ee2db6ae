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
EMTS's seeded evolution) applies unchanged — it just runs against a
availability-aware variant of the bottom-level list scheduler.

The three ladder rungs (see :mod:`repro.online.policies`) share that
one frontier mapper, so every rung's plan is directly comparable and
the budget is counted in identical units.  The incumbent plan is always
evaluated alongside whatever a rung proposes and wins ties, which makes
rescheduling monotone: an applied plan is never worse than the plan it
replaces *under the information available at that moment*.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..core.mutation import AllocationMutation
from ..core.seeding import make_allocator, seed_population
from ..ea import EvolutionStrategy
from ..exceptions import ConfigurationError
from ..graph import PTG
from ..mapping.kernel import abort_limits
from ..mapping.processor_state import ProcessorState
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
    """The frontier sub-instance, reindexed to ``0..n-1`` local tasks."""

    def __init__(
        self,
        ptg: PTG,
        table: TimeTable,
        topo: np.ndarray,
        frontier: np.ndarray,
        release: np.ndarray,
        alive: np.ndarray,
        avail: np.ndarray,
    ) -> None:
        self.frontier = frontier
        self.release = release
        self.alive = alive
        self.avail = avail
        self.n = int(frontier.size)
        self.P_alive = int(alive.size)
        pos = {int(v): i for i, v in enumerate(frontier)}
        self.pos = pos
        # execution-time rows truncated to the alive count: homogeneity
        # means T(v, s) depends only on s, so columns 0..P_alive-1 of
        # the full table are exactly the feasible sub-instance times
        self.times = table.array[frontier][:, : self.P_alive]
        self.preds = [
            [pos[u] for u in ptg.predecessors(int(v)) if u in pos]
            for v in frontier
        ]
        self.succs = [
            [pos[w] for w in ptg.successors(int(v)) if w in pos]
            for v in frontier
        ]
        self.topo = [pos[int(v)] for v in topo if int(v) in pos]
        self._ptg = ptg
        self._table = table
        self._sub = None

    # -- the availability-aware frontier mapper ------------------------
    def evaluate(
        self,
        sub_alloc: np.ndarray,
        build: bool = False,
        abort_above: float | None = None,
    ) -> tuple[float, np.ndarray, np.ndarray, list | None]:
        """List-schedule the frontier under release/availability bounds.

        Identical to the paper's bottom-level mapper except that tasks
        are data-ready no earlier than their release time and processors
        no earlier than their availability.  Returns ``(completion,
        start, finish, local_proc_sets)``; processor indices are local
        (``alive``-relative) and only materialised when ``build``.
        With ``abort_above``, mapping stops as soon as a task's start
        plus its bottom level (a lower bound on the completion) provably
        reaches the bound, and the result is ``(inf, None, None, None)``.
        """
        n, P = self.n, self.P_alive
        sink_limit, inner_limit = abort_limits(abort_above, n)
        a = np.clip(np.asarray(sub_alloc, dtype=np.int64), 1, P)
        t = self.times[np.arange(n), a - 1]
        bl = np.zeros(n, dtype=np.float64)
        for i in reversed(self.topo):
            succ = self.succs[i]
            bl[i] = t[i] + (max(bl[j] for j in succ) if succ else 0.0)
        n_waiting = np.array(
            [len(p) for p in self.preds], dtype=np.int64
        )
        data_ready = self.release.astype(np.float64).copy()
        start = np.zeros(n, dtype=np.float64)
        finish = np.zeros(n, dtype=np.float64)
        proc_sets: list | None = [None] * n if build else None
        state = ProcessorState(P)
        state.free[:] = self.avail
        heap = [(-bl[i], i) for i in range(n) if n_waiting[i] == 0]
        heapq.heapify(heap)
        completion = 0.0
        while heap:
            _, i = heapq.heappop(heap)
            s = int(a[i])
            t_start = state.earliest_start(s, float(data_ready[i]))
            if t_start + bl[i] >= (
                inner_limit if self.succs[i] else sink_limit
            ):
                return np.inf, None, None, None
            t_finish = t_start + float(t[i])
            chosen = state.assign(s, t_start, t_finish)
            if build:
                proc_sets[i] = chosen
            start[i] = t_start
            finish[i] = t_finish
            if t_finish > completion:
                completion = t_finish
            for j in self.succs[i]:
                if t_finish > data_ready[j]:
                    data_ready[j] = t_finish
                n_waiting[j] -= 1
                if n_waiting[j] == 0:
                    heapq.heappush(heap, (-bl[j], j))
        return completion, start, finish, proc_sets

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

    # -- sub-instance objects for the offline allocators ---------------
    def sub_instance(self) -> tuple[PTG, TimeTable]:
        """Frontier reindexed as a standalone (PTG, TimeTable) pair.

        Built lazily: the greedy rung never needs it.  The allocators
        see a pristine sub-cluster (no release/availability) — their
        output is only a *starting* allocation, always re-evaluated by
        the availability-aware mapper above.
        """
        if self._sub is None:
            edges = [
                (i, j)
                for i in range(self.n)
                for j in self.succs[i]
            ]
            sub_ptg = PTG(
                [self._ptg.task(int(v)) for v in self.frontier],
                edges,
                name=f"{self._ptg.name}/frontier",
            )
            sub_cluster = Cluster(
                name=f"{self._table.cluster.name}/alive",
                num_processors=self.P_alive,
                speed_gflops=self._table.cluster.speed_gflops,
            )
            sub_table = TimeTable(
                sub_ptg,
                sub_cluster,
                self.times.copy(),
                model_name=f"{self._table.model_name}/frontier",
            )
            self._sub = (sub_ptg, sub_table)
        return self._sub


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
        self._topo = np.asarray(ptg.topological_order)

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
            self._topo,
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
            allocation=np.clip(best, 1, problem.P_alive),
        )

    # -- ladder rungs ---------------------------------------------------
    def _run_repair(
        self, problem: _FrontierProblem, incumbent: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Heuristic repair: best of {repair allocator, incumbent}."""
        sub_ptg, sub_table = problem.sub_instance()
        allocator = make_allocator(self.policy.repair_heuristic)
        proposal = np.clip(
            allocator.allocate(sub_ptg, sub_table), 1, problem.P_alive
        )
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
        sub_ptg, sub_table = problem.sub_instance()
        mutation = AllocationMutation(problem.P_alive)
        individuals, _ = seed_population(
            sub_ptg,
            sub_table,
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
