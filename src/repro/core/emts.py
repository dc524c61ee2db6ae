"""EMTS — Evolutionary Moldable Task Scheduling (paper Section III).

EMTS is a two-step scheduler.  *Allocation* is solved by a (mu + lambda)
evolution strategy over allocation vectors: the initial population is
seeded with the allocation functions of MCPA, HCPA and the Δ-critical
heuristic; offspring are produced by the annealed Eq. 1 mutation; fitness
of an individual is the makespan of the list schedule built from its
allocations.  *Mapping* is the shared bottom-level list scheduler —
since the mapping function also evaluates every individual's fitness, the
fast makespan-only path of :mod:`repro.mapping` is used inside the loop
and the full schedule is reconstructed only once for the winner.

Because the EA only ever consults the precomputed
:class:`~repro.timemodels.TimeTable`, EMTS works unchanged with Amdahl's
law, the synthetic non-monotone model, Downey curves, or measured tables —
the model-independence that is the paper's main point.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .._rng import ensure_generator, spawn_children
from ..exceptions import CheckpointError, ConfigurationError
from ..ea import (
    AnyOf,
    Deadline,
    EvolutionLog,
    EvolutionStrategy,
    GenerationLimit,
    StopFlag,
    TimeBudget,
)
from ..graph import PTG
from ..mapping import Schedule, kernel_for, map_allocations
from ..obs.instrument import ObservedEvaluator, run_metrics
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, phase
from ..platform import Cluster
from ..timemodels import ExecutionTimeModel, TimeTable
from .checkpoint import (
    Checkpoint,
    load_checkpoint,
    problem_fingerprint,
    save_checkpoint,
    semantic_config,
    verify_resumable,
)
from .config import EMTSConfig, emts5_config, emts10_config
from .evaluator import EvaluationStats, create_evaluator
from .islands import IslandStrategy
from .mutation import AllocationMutation
from .seeding import seed_population

__all__ = ["EMTS", "EMTSResult", "emts5", "emts10"]

_log = get_logger("core.emts")


@dataclass
class EMTSResult:
    """Outcome of one EMTS run.

    Attributes
    ----------
    schedule:
        The full schedule reconstructed from the best allocation vector.
    allocation:
        The winning allocation vector ``s(v)``.
    seed_makespans:
        Makespan of each seed heuristic's own schedule — the baselines
        EMTS starts from (used for the paper's relative-makespan plots).
    log:
        Per-generation statistics of the evolutionary search.
    elapsed_seconds:
        Wall-clock time of the whole EMTS run (seeding + evolution +
        final mapping) — the quantity reported in Section V's runtime
        discussion.
    evaluation_stats:
        Counters of the fitness-evaluation engine: genomes submitted,
        mapper calls executed and evaluation wall-time (see
        :class:`repro.core.evaluator.EvaluationStats`).
    interrupted:
        True when the run ended early at a generation boundary because
        a deadline (``max_wall_time``) expired or a stop signal/event
        fired; the result then holds the best-so-far schedule and — if
        a checkpoint path was given — the run is resumable.
    """

    schedule: Schedule
    allocation: np.ndarray
    seed_makespans: dict[str, float]
    log: EvolutionLog
    elapsed_seconds: float
    config: EMTSConfig = field(repr=False)
    evaluation_stats: EvaluationStats | None = None
    interrupted: bool = False

    @property
    def makespan(self) -> float:
        """Makespan of the best schedule found."""
        return self.schedule.makespan

    @property
    def evaluations(self) -> int:
        """Total number of fitness (mapping) evaluations."""
        return self.log.total_evaluations

    def improvement_over(self, heuristic: str) -> float:
        """Relative makespan ``T_heuristic / T_EMTS`` (>= 1 when EMTS wins)."""
        try:
            base = self.seed_makespans[heuristic]
        except KeyError:
            known = ", ".join(sorted(self.seed_makespans))
            raise KeyError(
                f"no seed named {heuristic!r}; recorded seeds: {known}"
            ) from None
        return base / self.makespan


def _find_verifier(evaluator):
    """The VerifyingEvaluator in a wrapped evaluator stack, if any."""
    obj = evaluator
    while obj is not None:
        if hasattr(obj, "verified") and hasattr(obj, "divergences"):
            return obj
        obj = getattr(obj, "inner", None)
    return None


class EMTS:
    """The Evolutionary Moldable Task Scheduling algorithm.

    Parameters
    ----------
    config:
        Full parameterization; defaults to the paper's EMTS5 preset.

    Example
    -------
    >>> from repro import EMTS, grelon, SyntheticModel
    >>> from repro.workloads import generate_fft
    >>> result = EMTS().schedule(
    ...     generate_fft(4, rng=7), grelon(), SyntheticModel(), rng=7
    ... )
    >>> result.makespan <= min(result.seed_makespans.values()) + 1e-12
    True
    """

    def __init__(self, config: EMTSConfig | None = None) -> None:
        self.config = config or emts5_config()

    @property
    def name(self) -> str:
        """Configuration name (``emts5``, ``emts10``, ...)."""
        return self.config.name

    # ------------------------------------------------------------------
    def schedule(
        self,
        ptg: PTG,
        cluster: Cluster,
        model: ExecutionTimeModel | TimeTable,
        rng: np.random.Generator | int | None = None,
        *,
        checkpoint_path: str | Path | None = None,
        checkpoint_interval: int = 1,
        resume_from: str | Path | None = None,
        max_wall_time: float | None = None,
        stop_event: threading.Event | None = None,
        handle_signals: bool = False,
        evaluator_wrapper=None,
        trace: str | Path | Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> EMTSResult:
        """Schedule ``ptg`` on ``cluster`` under ``model``.

        ``model`` may be an :class:`ExecutionTimeModel` (the table is
        built internally) or an already-built :class:`TimeTable` (reused
        across algorithms in the experiment harness).

        Resilience parameters (all keyword-only, all optional)
        -----------------------------------------------------
        checkpoint_path:
            Journal a resumable :class:`~repro.core.checkpoint.Checkpoint`
            to this file after every completed generation (atomic
            write).  Costs one JSON dump per generation; ``None`` (the
            default) keeps the historical zero-overhead behavior.
        checkpoint_interval:
            Generations between journals.  ``1`` (the default)
            journals every generation and archives the completed run
            in a final journal marked ``completed``.  A larger interval
            ``k`` journals after generation ``g`` when ``g + 1`` (the
            seeded population counts as one generation) is a multiple
            of ``k``, and only while generations remain: the run
            completes with no journal, since it has nothing left to
            resume.  A run that stops early (deadline, stop event,
            signal) always journals its stop point.
        resume_from:
            Continue a checkpointed run: population, evolution log, RNG
            stream and evaluation counters are restored and the search
            proceeds from the next generation.  The checkpoint must
            match this run's semantic configuration and problem
            fingerprint (:func:`~repro.core.checkpoint.verify_resumable`).
            The resumed run reaches the same final makespan as an
            uninterrupted one.
        max_wall_time:
            Hard wall-clock budget in seconds for the whole run,
            counted from ``schedule()`` entry and, on resume, including
            the time already spent by previous segments.  When it
            expires the run stops at the next generation boundary and
            returns the best-so-far result with ``interrupted=True``.
        stop_event:
            External ``threading.Event``; setting it ends the run
            gracefully at the next generation boundary.
        handle_signals:
            Install SIGINT/SIGTERM handlers (main thread only) that set
            the stop event, turning Ctrl-C into a graceful shutdown
            with a final checkpoint instead of a lost run.  Previous
            handlers are restored before returning.
        evaluator_wrapper:
            Callable applied to the freshly built fitness evaluator
            (e.g. :class:`repro.testing.chaos.ChaosEvaluator` for fault
            injection); must return an object with the same interface.

        Observability parameters (keyword-only, off by default)
        ------------------------------------------------------
        trace:
            Write a structured JSONL run trace to this path (or into an
            already-open :class:`repro.obs.Tracer`, shared with e.g. a
            campaign): ``run_start`` / ``seed`` / per-``generation`` /
            ``checkpoint`` / ``verify`` / ``run_end`` events plus one
            ``evaluation`` event per fitness batch.  For a fixed seed
            the trace is bit-identical across runs after
            :func:`repro.obs.strip_timestamps`.  The ``kernel_build``,
            ``seeding`` and ``final_mapping`` steps are timed as
            ``phase`` events, checkpoint writes as ``checkpoint``
            events.
        metrics:
            A :class:`repro.obs.MetricsRegistry` to fill with the run's
            canonical ``emts.*`` counters/histograms and live
            ``evaluation.*`` batch metrics.

        Both default to ``None``; the disabled path builds no wrapper
        and times nothing, keeping the historical zero-overhead hot
        path.
        """
        t_start = time.perf_counter()
        cfg = self.config
        rng = ensure_generator(rng, "emts", cfg.name)
        if max_wall_time is not None and max_wall_time <= 0:
            raise ConfigurationError(
                f"max_wall_time must be > 0 seconds, got {max_wall_time}"
            )
        if isinstance(checkpoint_interval, bool) or not (
            isinstance(checkpoint_interval, int) and checkpoint_interval >= 1
        ):
            raise ConfigurationError(
                f"checkpoint_interval must be an integer >= 1, "
                f"got {checkpoint_interval!r}"
            )

        tracer: Tracer | None
        owns_tracer = False
        if trace is None:
            tracer = None
        elif isinstance(trace, Tracer):
            tracer = trace
        else:
            tracer = Tracer(trace)
            owns_tracer = True
        observing = tracer is not None or metrics is not None

        # Install signal handlers before any heavy work — seeding a
        # large problem can take seconds, and an early Ctrl-C should
        # degrade to a graceful stop at the first generation boundary,
        # not a KeyboardInterrupt traceback.
        if handle_signals and stop_event is None:
            stop_event = threading.Event()
        previous_handlers: dict = {}
        if handle_signals:

            def _request_stop(signum, frame):
                _log.warning(
                    "received signal %d; stopping at the next "
                    "generation boundary",
                    signum,
                )
                stop_event.set()

            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous_handlers[sig] = signal.signal(
                        sig, _request_stop
                    )
                except ValueError:
                    # not the main thread: signals cannot be routed
                    # here, the stop_event remains usable directly
                    break
        evaluator = None
        try:
            if isinstance(model, TimeTable):
                table = model
                if table.ptg != ptg:
                    raise ConfigurationError(
                        f"time table was built for PTG {table.ptg.name!r}, "
                        f"not {ptg.name!r}"
                    )
                if table.cluster != cluster:
                    raise ConfigurationError(
                        f"time table was built for cluster "
                        f"{table.cluster.name!r}, not {cluster.name!r}"
                    )
            else:
                table = TimeTable.build(model, ptg, cluster)

            # fixed for the whole run: computed once, shared by the
            # trace's run_start, the resume check and every checkpoint
            problem = None
            if (
                tracer is not None
                or checkpoint_path is not None
                or resume_from is not None
            ):
                problem = problem_fingerprint(ptg, table)
            semantic = (
                semantic_config(cfg) if checkpoint_path is not None else None
            )

            mutation = AllocationMutation(
                P=table.num_processors,
                fm=cfg.fm,
                sigma_stretch=cfg.sigma_stretch,
                sigma_shrink=cfg.sigma_shrink,
                shrink_probability=cfg.shrink_probability,
            )

            if tracer is not None:
                # the engine is only known once the kernel is built, a
                # few lines down — run_end records it
                tracer.begin(
                    "run_start",
                    attrs={
                        "algorithm": cfg.name,
                        "problem": problem,
                        "resumed": resume_from is not None,
                    },
                )
            # Build the compiled scheduling kernel up front: every fitness
            # call of the run (seeding included) reuses its CSR arrays and
            # dense time table, and the construction cost stays out of
            # the first generation's timing.
            with phase(tracer, "kernel_build"):
                kernel = kernel_for(table)

            checkpoint: Checkpoint | None = None
            prior_elapsed = 0.0
            prior_eval_stats: EvaluationStats | None = None
            island_rngs: list[np.random.Generator] | None = None
            if resume_from is not None:
                checkpoint = load_checkpoint(resume_from)
                verify_resumable(
                    checkpoint, cfg, ptg, table, problem=problem
                )
                prior_elapsed = checkpoint.elapsed_seconds
                prior_eval_stats = checkpoint.restore_eval_stats()
                initial = checkpoint.restore_population()
                checkpoint.restore_rng(rng)
                if cfg.islands:
                    island_rngs = checkpoint.restore_island_rngs()
                    if island_rngs is None:
                        raise CheckpointError(
                            "checkpoint holds no island RNG streams; "
                            "it was not written by an island-mode run"
                        )
                _log.info(
                    "resuming %s from %s at generation %d",
                    cfg.name,
                    resume_from,
                    checkpoint.generation,
                )
            else:
                with phase(tracer, "seeding"):
                    initial, seed_allocs = seed_population(
                        ptg,
                        table,
                        heuristics=cfg.seed_heuristics,
                        population_size=cfg.mu,
                        mutation=mutation,
                        rng=rng,
                        delta=cfg.delta,
                    )
                if cfg.islands:
                    # one mutation stream per island, derived
                    # from the master generator at a fixed point (right
                    # after seeding) so the decomposition is a pure
                    # function of the seed
                    island_rngs = spawn_children(rng, cfg.mu)
            evaluator = create_evaluator(ptg, table, verify=cfg.verify)
            if evaluator_wrapper is not None:
                evaluator = evaluator_wrapper(evaluator)
            verifier = _find_verifier(evaluator)
            if observing:
                # Outermost wrapper: the recorded batch durations cover
                # the whole evaluator stack.  Only built when tracing or
                # metrics are requested, so the disabled path carries no
                # wrapper at all.
                evaluator = ObservedEvaluator(
                    evaluator,
                    tracer=tracer,
                    metrics=metrics,
                    verifier=verifier,
                )

            criteria: list = [GenerationLimit(cfg.generations)]
            if cfg.time_budget_seconds is not None:
                criteria.append(TimeBudget(cfg.time_budget_seconds))
            deadline: Deadline | None = None
            if max_wall_time is not None:
                # anchor at run start; time already spent by previous
                # segments of a resumed run counts against the budget
                deadline = Deadline(t_start + max_wall_time - prior_elapsed)
                criteria.append(deadline)
            if stop_event is not None:
                criteria.append(StopFlag(stop_event))
            termination = (
                criteria[0] if len(criteria) == 1 else AnyOf(*criteria)
            )

            def combined_stats() -> EvaluationStats:
                stats = evaluator.stats
                if prior_eval_stats is None:
                    return stats
                total = prior_eval_stats.copy()
                total.merge(stats)
                return total

            def journal(population, generation, log, completed=False):
                if checkpoint_path is None:
                    return
                t0 = time.perf_counter()
                save_checkpoint(
                    Checkpoint.capture(
                        cfg,
                        ptg,
                        table,
                        generation,
                        rng,
                        population,
                        log,
                        seed_makespans,
                        eval_stats=combined_stats(),
                        elapsed_seconds=prior_elapsed + (t0 - t_start),
                        completed=completed,
                        island_rngs=island_rngs,
                        semantic=semantic,
                        problem=problem,
                    ),
                    checkpoint_path,
                )
                if tracer is not None:
                    tracer.event(
                        "checkpoint",
                        attrs={
                            "generation": int(generation),
                            "completed": bool(completed),
                        },
                        dur=time.perf_counter() - t0,
                    )

            def journal_due(generation) -> bool:
                if checkpoint_interval == 1:
                    return True
                return (
                    generation < cfg.generations
                    and (generation + 1) % checkpoint_interval == 0
                )

            def on_generation_end(population, generation, log):
                if tracer is not None:
                    tracer.event(
                        "generation",
                        attrs=log.entries[-1].trace_attrs(),
                    )
                if journal_due(generation):
                    journal(population, generation, log)

            if cfg.islands:
                strategy = IslandStrategy(
                    mu=cfg.mu,
                    lam=cfg.lam,
                    mutation=mutation,
                    migration_interval=cfg.migration_interval,
                )
                stream = island_rngs
            else:
                strategy = EvolutionStrategy(
                    mu=cfg.mu,
                    lam=cfg.lam,
                    mutation=mutation,
                    selection=cfg.selection,
                )
                stream = rng
            if checkpoint is not None:
                seed_makespans = dict(checkpoint.seed_makespans)
                resume_log = checkpoint.restore_log()
                start_generation = checkpoint.generation
            else:
                # Seed baselines go through the evaluator too, so their
                # values come from the same engine as every fitness (in
                # a trace, the batch before the ``seed`` event).
                seed_names = list(seed_allocs)
                seed_values = evaluator.evaluate(
                    [seed_allocs[name] for name in seed_names]
                )
                seed_makespans = dict(zip(seed_names, seed_values))
                resume_log = None
                start_generation = 0
            if tracer is not None:
                tracer.event(
                    "seed",
                    attrs={
                        "heuristics": sorted(seed_makespans),
                        "makespans": seed_makespans,
                    },
                )

            generation_hook = (
                on_generation_end
                if (checkpoint_path is not None or tracer is not None)
                else None
            )
            outcome = strategy.evolve(
                initial,
                evaluator,
                stream,
                termination=termination,
                total_generations=cfg.generations,
                on_generation_end=generation_hook,
                resume_log=resume_log,
                start_generation=start_generation,
            )
        except BaseException:
            # an escaping error leaves the trace as a valid prefix of
            # complete lines (no run_end — report-trace flags the run
            # as incomplete); close our own file handle on the way out
            if owns_tracer:
                tracer.close()
            raise
        finally:
            if evaluator is not None:
                evaluator.close()
            for sig, handler in previous_handlers.items():
                signal.signal(sig, handler)

        completed = outcome.log.generations - 1 >= cfg.generations
        interrupted = not completed and (
            (stop_event is not None and stop_event.is_set())
            or (deadline is not None and deadline.expired())
        )
        if checkpoint_path is not None and (
            not completed or checkpoint_interval == 1
        ):
            # final checkpoint: records the stop point of an interrupted
            # run, or archives a completed one under the per-generation
            # default (same content the last per-generation journal
            # wrote, plus the final elapsed time)
            journal(
                outcome.population,
                outcome.log.generations - 1,
                outcome.log,
                completed=completed,
            )

        best_alloc = np.asarray(outcome.best.genome, dtype=np.int64)
        with phase(tracer, "final_mapping"):
            schedule = map_allocations(ptg, table, best_alloc)
        elapsed = prior_elapsed + (time.perf_counter() - t_start)
        result = EMTSResult(
            schedule=schedule,
            allocation=best_alloc,
            seed_makespans=seed_makespans,
            log=outcome.log,
            elapsed_seconds=elapsed,
            config=cfg,
            evaluation_stats=combined_stats(),
            interrupted=interrupted,
        )
        if metrics is not None:
            run_metrics(result, registry=metrics)
        if tracer is not None:
            if verifier is not None:
                tracer.event(
                    "verify",
                    attrs={
                        "verified": verifier.verified,
                        "divergences": verifier.divergences,
                        "overhead_seconds": verifier.verify_seconds,
                    },
                )
            tracer.end(
                "run_end",
                attrs={
                    "makespan": float(result.makespan),
                    "engine": kernel.engine,
                    "generations": outcome.log.generations - 1,
                    "interrupted": interrupted,
                    "eval_stats": asdict(result.evaluation_stats),
                },
            )
            if owns_tracer:
                tracer.close()
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"EMTS(({c.mu}+{c.lam})-EA, U={c.generations}, "
            f"seeds={list(c.seed_heuristics)})"
        )


def emts5(**overrides) -> EMTS:
    """The paper's EMTS5: (5 + 25)-EA, 5 generations."""
    return EMTS(emts5_config().with_updates(**overrides))


def emts10(**overrides) -> EMTS:
    """The paper's EMTS10: (10 + 100)-EA, 10 generations."""
    return EMTS(emts10_config().with_updates(**overrides))
