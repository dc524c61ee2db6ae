"""Command-line interface: ``python -m repro`` / ``repro-emts``.

Subcommands:

``generate``
    Generate a PTG (fft / strassen / daggen) and save it as JSON or DOT.
``schedule``
    Schedule a PTG file (or a generated one) with a chosen algorithm and
    print the resulting makespan, allocations and optionally a Gantt
    chart.
``figure``
    Regenerate one of the paper's figures (1-6) and print/save its data.
``online``
    Execute a schedule reactively under injected faults (crashes,
    transient failures, stragglers) with frontier rescheduling and an
    optional deadline.
``runtime``
    Run the Section V runtime measurement (experiment E7).
``corpus``
    Summarize (and optionally save) the paper's evaluation corpus.
``report-trace``
    Summarize a structured JSONL trace written by ``--trace``, or a
    ``serve --trace-dir`` directory.

Global ``--log-level`` / ``--log-json`` flags configure the package's
logging (see :mod:`repro.obs.log`); ``schedule`` and ``campaign`` accept
``--trace`` / ``--metrics-out`` to record structured observability data.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .obs import LOG_LEVELS, configure_logging

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .graph import PTG
    from .platform import Cluster
    from .timemodels import ExecutionTimeModel

__all__ = ["main", "build_parser"]


def _run_profiled(func, args) -> int:
    """Run ``func(args)`` under :mod:`cProfile`.

    Binary stats go to ``args.profile`` (loadable with ``pstats`` or
    ``snakeviz``); the top cumulative-time entries are printed so the
    hot path is visible without extra tooling.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rc = func(args)
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(25)
        print()
        print(stream.getvalue().rstrip())
        print(f"wrote profile stats -> {args.profile}")
    return rc


def _make_model(name: str) -> ExecutionTimeModel:
    from .timemodels import model_by_name

    try:
        return model_by_name(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def _make_algorithm(
    name: str,
    verify: str = "off",
    islands: bool = False,
    migration_interval: int = 1,
):
    from .core import SEED_REGISTRY, emts5, emts10, make_allocator
    from .exceptions import ConfigurationError

    name = name.lower()
    overrides = dict(
        verify=verify,
        islands=islands,
        migration_interval=migration_interval,
    )
    try:
        if name == "emts5":
            return emts5(**overrides)
        if name == "emts10":
            return emts10(**overrides)
    except ConfigurationError as exc:
        raise SystemExit(f"configuration error: {exc}") from exc
    if name in SEED_REGISTRY:
        return make_allocator(name)
    known = ", ".join(["emts5", "emts10"] + sorted(SEED_REGISTRY))
    raise SystemExit(f"unknown algorithm {name!r}; known: {known}")


def _generate_ptg(args) -> PTG:
    from .workloads import (
        DaggenParams,
        generate_daggen,
        generate_fft,
        generate_strassen,
    )

    if args.kind == "fft":
        return generate_fft(args.size, rng=args.seed)
    if args.kind == "strassen":
        return generate_strassen(rng=args.seed)
    if args.kind == "daggen":
        return generate_daggen(
            DaggenParams(
                num_tasks=args.size,
                width=args.width,
                regularity=args.regularity,
                density=args.density,
                jump=args.jump,
            ),
            rng=args.seed,
        )
    raise SystemExit(f"unknown PTG kind {args.kind!r}")


def _input_ptg(args) -> PTG:
    """The ``--ptg`` file, or without one the generated graph; a file
    that does not hold a PTG ends the command with a message naming it."""
    if not args.ptg:
        return _generate_ptg(args)
    from .exceptions import GraphError
    from .graph import load_ptg

    try:
        return load_ptg(args.ptg)
    except GraphError as exc:
        raise SystemExit(f"ptg error: {exc}") from exc


# ----------------------------------------------------------------------
def _cmd_generate(args) -> int:
    from .graph import ptg_to_dot, save_ptg

    ptg = _generate_ptg(args)
    out = Path(args.output)
    if out.suffix == ".dot":
        out.write_text(ptg_to_dot(ptg), encoding="utf-8")
    else:
        save_ptg(ptg, out)
    print(
        f"wrote {ptg.name}: {ptg.num_tasks} tasks, {ptg.num_edges} "
        f"edges -> {out}"
    )
    return 0


def _cmd_schedule(args) -> int:
    from .allocation import AllocationHeuristic
    from .core import EMTS
    from .exceptions import CheckpointError, TraceError
    from .mapping import map_allocations
    from .obs import MetricsRegistry
    from .platform import by_name
    from .timemodels import TimeTable

    ptg = _input_ptg(args)
    cluster: Cluster = by_name(args.platform)
    model = _make_model(args.model)
    table = TimeTable.build(model, ptg, cluster)
    verify = getattr(args, "verify", "off")
    algorithm = _make_algorithm(
        args.algorithm,
        verify=verify,
        islands=getattr(args, "islands", False),
        migration_interval=getattr(args, "migration_interval", 1),
    )

    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    max_wall_time = getattr(args, "max_wall_time", None)
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not isinstance(algorithm, EMTS) and (
        checkpoint or resume or max_wall_time is not None
    ):
        raise SystemExit(
            "--checkpoint/--resume/--max-wall-time only apply to EMTS "
            f"algorithms, not {args.algorithm!r}"
        )
    if not isinstance(algorithm, EMTS) and (trace or metrics_out):
        raise SystemExit(
            "--trace/--metrics-out only apply to EMTS algorithms, "
            f"not {args.algorithm!r}"
        )

    if isinstance(algorithm, EMTS):
        registry = MetricsRegistry() if metrics_out else None
        try:
            result = algorithm.schedule(
                ptg,
                cluster,
                table,
                rng=args.seed,
                checkpoint_path=checkpoint,
                resume_from=resume,
                max_wall_time=max_wall_time,
                handle_signals=True,
                trace=trace,
                metrics=registry,
            )
        except CheckpointError as exc:
            raise SystemExit(f"checkpoint error: {exc}") from exc
        except TraceError as exc:
            raise SystemExit(f"trace error: {exc}") from exc
        schedule = result.schedule
        print(f"algorithm : {algorithm.name}")
        for name, ms in sorted(result.seed_makespans.items()):
            print(f"seed {name:<15s}: {ms:.6g} s")
        print(f"makespan  : {result.makespan:.6g} s")
        print(f"opt. time : {result.elapsed_seconds:.3f} s")
        print(f"evals     : {result.evaluations}")
        if result.evaluation_stats is not None:
            print(f"evaluator : {result.evaluation_stats.summary()}")
        if result.interrupted:
            gens = result.log.generations - 1
            where = (
                f"; resume with --resume {checkpoint}"
                if checkpoint
                else ""
            )
            print(
                f"interrupted: stopped after generation {gens} of "
                f"{result.config.generations} (best-so-far result)"
                f"{where}"
            )
        if trace:
            print(
                f"wrote trace -> {trace} "
                f"(summarize with: repro-emts report-trace {trace})"
            )
        if registry is not None:
            out = registry.dump(metrics_out)
            print(f"wrote metrics -> {out}")
    else:
        assert isinstance(algorithm, AllocationHeuristic)
        alloc = algorithm.allocate(ptg, table)
        schedule = map_allocations(ptg, table, alloc)
        print(f"algorithm : {algorithm.name}")
        print(f"makespan  : {schedule.makespan:.6g} s")
        if verify != "off":
            from .exceptions import VerificationError
            from .verify import differential_check

            try:
                report = differential_check(
                    ptg, table, alloc, expected=schedule.makespan
                )
            except VerificationError as exc:
                raise SystemExit(
                    f"verification FAILED ({exc.kind}): {exc}"
                ) from exc
            print(f"verified  : {report}")
    print(f"utilization: {schedule.utilization:.1%}")
    if args.gantt:
        from .mapping.gantt import ascii_gantt

        print()
        print(ascii_gantt(schedule))
    if args.svg:
        from .mapping.gantt import save_svg_gantt

        save_svg_gantt(schedule, args.svg)
        print(f"wrote Gantt SVG -> {args.svg}")
    return 0


def _cmd_online(args) -> int:
    from .allocation import AllocationHeuristic
    from .core import EMTS
    from .exceptions import ConfigurationError
    from .mapping import map_allocations
    from .obs import MetricsRegistry, Tracer
    from .online import FaultPlan, ReactionPolicy, execute_online
    from .platform import by_name
    from .timemodels import TimeTable

    ptg = _input_ptg(args)
    cluster: Cluster = by_name(args.platform)
    model = _make_model(args.model)
    table = TimeTable.build(model, ptg, cluster)
    algorithm = _make_algorithm(args.algorithm)
    if isinstance(algorithm, EMTS):
        planned = algorithm.schedule(
            ptg, cluster, table, rng=args.seed
        ).schedule
    else:
        assert isinstance(algorithm, AllocationHeuristic)
        alloc = algorithm.allocate(ptg, table)
        planned = map_allocations(ptg, table, alloc)

    rates = (args.crash_rate, args.failure_rate, args.straggler_rate)
    if any(r < 0 or r > 1 for r in rates):
        raise SystemExit("fault rates must be within [0, 1]")
    try:
        if any(rates):
            plan = FaultPlan.sampled(
                args.fault_seed,
                ptg.num_tasks,
                cluster.num_processors,
                horizon=planned.makespan,
                crash_rate=args.crash_rate,
                failure_rate=args.failure_rate,
                straggler_rate=args.straggler_rate,
                straggler_factor=args.straggler_factor,
                max_retries=args.max_retries,
            )
        else:
            plan = FaultPlan(max_retries=args.max_retries)
        policy = ReactionPolicy(
            budget_evaluations=args.reaction_budget
        )
    except ConfigurationError as exc:
        raise SystemExit(f"configuration error: {exc}") from exc

    deadline = args.deadline
    if args.deadline_factor is not None:
        if deadline is not None:
            raise SystemExit(
                "--deadline and --deadline-factor are mutually "
                "exclusive"
            )
        deadline = args.deadline_factor * planned.makespan

    tracer = Tracer(args.trace) if args.trace else None
    registry = MetricsRegistry() if args.metrics_out else None
    try:
        result = execute_online(
            planned,
            table,
            plan=plan,
            policy=policy,
            deadline=deadline,
            rng=args.seed,
            tracer=tracer,
            metrics=registry,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"configuration error: {exc}") from exc
    finally:
        if tracer is not None:
            tracer.close()

    print(f"algorithm : {algorithm.name}")
    print(f"planned   : {result.planned_makespan:.6g} s")
    faults = plan.summary()
    print(
        f"faults    : {faults['crashes']} crashes, "
        f"{faults['failures']} failures, "
        f"{faults['stragglers']} stragglers "
        f"({result.faults_injected} injected, "
        f"{result.retries} retries)"
    )
    rungs = (
        ", ".join(
            f"{name} x{count}"
            for name, count in sorted(result.rungs.items())
        )
        or "none"
    )
    print(
        f"replans   : {result.reschedules} ({rungs}); "
        f"budget used {result.budget_used}"
        f"/{policy.budget_evaluations}"
    )
    if result.deadline is not None:
        print(f"deadline  : {result.deadline:.6g} s")
    print(f"makespan  : {result.makespan:.6g} s")
    print(f"outcome   : {result.outcome}")
    if result.reason:
        print(f"reason    : {result.reason}")
    if result.schedule is not None:
        print(f"verified  : {result.verified}")
    if args.trace:
        print(
            f"wrote trace -> {args.trace} "
            f"(summarize with: repro-emts report-trace {args.trace})"
        )
    if registry is not None:
        out = registry.dump(args.metrics_out)
        print(f"wrote metrics -> {out}")
    if result.outcome == "deadline-missed":
        return EXIT_DEADLINE_MISSED
    if result.outcome == "aborted":
        return EXIT_ABORTED
    return 0


def _cmd_figure(args) -> int:
    from .experiments import figures as F

    if str(args.number).lower() == "all":
        for n in range(1, 7):
            print(f"\n===== Figure {n} =====")
            sub_args = argparse.Namespace(**vars(args))
            sub_args.number = n
            _cmd_figure(sub_args)
        return 0
    try:
        n = int(args.number)
    except ValueError:
        raise SystemExit(
            f"figure must be a number 1-6 or 'all', got "
            f"{args.number!r}"
        ) from None
    out_dir = Path(args.output_dir) if args.output_dir else None
    if n == 1:
        print(F.generate_figure1().render())
    elif n == 2:
        print(F.generate_figure2().render())
    elif n == 3:
        print(F.generate_figure3(samples=args.samples).render())
    elif n == 4:
        fig = F.generate_figure4(seed=args.seed, scale=args.scale)
        print(fig.render())
    elif n == 5:
        fig = F.generate_figure5(seed=args.seed, scale=args.scale)
        print(fig.render())
    elif n == 6:
        fig = F.generate_figure6(seed=args.seed)
        print(fig.render())
        if out_dir:
            paths = fig.save_svgs(out_dir)
            print(f"wrote {paths[0]} and {paths[1]}")
    else:
        raise SystemExit(f"no figure {n}; the paper has figures 1-6")
    return 0


def _cmd_runtime(args) -> int:
    from .experiments import measure_runtimes

    report = measure_runtimes(
        seed=args.seed,
        repetitions=args.repetitions,
        verify=getattr(args, "verify", "off"),
    )
    print(report.render())
    return 0


def _cmd_scalability(args) -> int:
    from .experiments import run_scalability_sweep
    from .workloads import DaggenParams, generate_daggen

    ptgs = [
        generate_daggen(
            DaggenParams(
                num_tasks=args.size,
                width=0.5,
                regularity=0.2,
                density=0.2,
                jump=2,
            ),
            rng=(args.seed or 0) + i,
        )
        for i in range(args.instances)
    ]
    sizes = tuple(int(s) for s in args.sizes.split(","))
    sweep = run_scalability_sweep(ptgs, sizes=sizes, seed=args.seed)
    print(sweep.render())
    trend = (
        "non-decreasing"
        if sweep.trend_is_nondecreasing()
        else "NOT monotone"
    )
    print(f"trend across platform sizes: {trend}")
    return 0


def _cmd_convergence(args) -> int:
    from .core import emts5, emts10
    from .experiments import run_convergence_study
    from .platform import by_name
    from .workloads import DaggenParams, generate_daggen

    ptgs = [
        generate_daggen(
            DaggenParams(
                num_tasks=args.size,
                width=0.5,
                regularity=0.2,
                density=0.2,
                jump=2,
            ),
            rng=(args.seed or 0) + i,
        )
        for i in range(args.instances)
    ]
    overrides = dict(
        verify=getattr(args, "verify", "off"),
        islands=getattr(args, "islands", False),
        migration_interval=getattr(args, "migration_interval", 1),
    )
    study = run_convergence_study(
        ptgs,
        by_name(args.platform),
        _make_model(args.model),
        [emts5(**overrides), emts10(**overrides)],
        seed=args.seed,
    )
    print(study.render())
    print(study.evaluation_summary())
    for variant in ("emts5", "emts10"):
        print(
            f"final mean improvement over seeds ({variant}): "
            f"{study.final_improvement(variant):.3f}x"
        )
    return 0


def _cmd_campaign(args) -> int:
    from .exceptions import CampaignError, TraceError
    from .experiments import campaign_status
    from .experiments import figures as F
    from .obs import MetricsRegistry

    if args.status:
        try:
            status = campaign_status(args.out)
        except CampaignError as exc:
            raise SystemExit(str(exc)) from exc
        print(
            f"campaign {args.out}: {status['done']} done, "
            f"{status['quarantined']} quarantined, "
            f"{status['pending']} pending "
            f"(of {len(status['trials'])} trials)"
        )
        for key, state in status["status"].items():
            if state != "done":
                print(f"  {state:<12s} {key}")
        return 0

    def progress(key: str, state: str) -> None:
        if not args.quiet:
            print(f"[{state:>11s}] {key}")

    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    registry = MetricsRegistry() if metrics_out else None
    try:
        if args.figure == 4:
            fig = F.generate_figure4(
                seed=args.seed,
                scale=args.scale,
                campaign_dir=args.out,
                trial_timeout=args.trial_timeout,
                progress=progress,
                trace=trace,
                metrics=registry,
                verify=getattr(args, "verify", "off"),
            )
            print(fig.render())
        elif args.figure == 5:
            fig5 = F.generate_figure5(
                seed=args.seed,
                scale=args.scale,
                campaign_dir=args.out,
                trial_timeout=args.trial_timeout,
                progress=progress,
                trace=trace,
                metrics=registry,
                verify=getattr(args, "verify", "off"),
            )
            print(fig5.render())
        else:
            raise SystemExit(
                f"campaigns exist for figures 4 and 5, not "
                f"{args.figure}"
            )
    except CampaignError as exc:
        raise SystemExit(str(exc)) from exc
    except TraceError as exc:
        raise SystemExit(f"trace error: {exc}") from exc
    if trace:
        print(
            f"wrote trace -> {trace} "
            f"(summarize with: repro-emts report-trace {trace})"
        )
    if registry is not None:
        out = registry.dump(metrics_out)
        print(f"wrote metrics -> {out}")
    print(
        f"campaign state persisted under {args.out}; re-running the "
        "same command resumes it"
    )
    return 0


def _cmd_report_trace(args) -> int:
    from .exceptions import TraceError
    from .obs import render_trace_report

    try:
        print(render_trace_report(args.trace))
    except TraceError as exc:
        raise SystemExit(f"trace error: {exc}") from exc
    return 0


def _cmd_corpus(args) -> int:
    from .workloads import paper_corpus

    corpus = paper_corpus(seed=args.seed, scale=args.scale)
    print(corpus.summary())
    sizes = {
        cls: sorted({p.num_tasks for p in corpus.by_class(cls)})
        for cls in corpus.classes
    }
    for cls, sz in sizes.items():
        print(f"  {cls}: task counts {sz}")
    if args.output:
        from .graph import save_corpus

        all_ptgs = [
            p for cls in corpus.classes for p in corpus.by_class(cls)
        ]
        save_corpus(all_ptgs, args.output)
        print(f"wrote {len(all_ptgs)} PTGs -> {args.output}")
    return 0


# ----------------------------------------------------------------------
#: `submit` exit codes (sysexits-style so shell scripts can branch):
#: 75 = EX_TEMPFAIL, the queue rejected us and a retry may succeed;
#: 124 mirrors timeout(1) for jobs still pending at the deadline.
EXIT_QUEUE_FULL = 75
EXIT_TIMEOUT = 124

#: `online` exit codes: a run that misses its deadline or aborts
#: (retry budget exhausted / every processor lost) signals the outcome
#: distinctly so chaos harnesses can branch on it.
EXIT_DEADLINE_MISSED = 3
EXIT_ABORTED = 4


def _cmd_serve(args) -> int:
    from .service import serve

    spool = args.spool
    if spool is not None:
        Path(spool).mkdir(parents=True, exist_ok=True)
    trace_dir = args.trace_dir
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    return serve(
        host=args.host,
        port=args.port,
        workers=args.service_workers,
        spool=spool,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        result_cache_size=args.result_cache_size,
        warm_max_problems=args.warm_problems,
        trace_dir=trace_dir,
    )


def _cmd_submit(args) -> int:
    import json as _json

    from .graph import ptg_to_dict
    from .service import (
        JobTimeout,
        QueueFullError,
        RetryingServiceClient,
        RetryPolicy,
        ServiceUnavailable,
    )
    from .exceptions import ServiceError

    ptg = _input_ptg(args)
    request = {
        "ptg": ptg_to_dict(ptg),
        "platform": args.platform,
        "model": args.model,
        "algorithm": args.algorithm,
        "seed": args.seed,
        "tenant": args.tenant,
        "priority": args.priority,
    }
    if args.generations is not None:
        request["generations"] = args.generations
    if args.max_wall_time is not None:
        request["max_wall_time"] = args.max_wall_time
    if args.idempotency_key:
        request["idempotency_key"] = args.idempotency_key
    policy = RetryPolicy(
        max_attempts=max(1, args.retries + 1),
        deadline=args.timeout,
    )
    client = RetryingServiceClient(
        host=args.host, port=args.port, policy=policy
    )
    try:
        doc = client.schedule(
            request,
            timeout=args.timeout,
            poll_interval=args.poll_interval,
        )
    except QueueFullError as exc:
        hint = (
            f" (retry after {exc.retry_after:g}s)"
            if exc.retry_after
            else ""
        )
        print(f"rejected: {exc}{hint}", file=sys.stderr)
        return EXIT_QUEUE_FULL
    except JobTimeout as exc:
        print(f"timed out: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ServiceUnavailable, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    job = doc.get("job", {})
    if job.get("state") == "failed":
        error = doc.get("error") or {}
        print(
            f"job {job.get('id')} failed: "
            f"{error.get('code')}: {error.get('message')}",
            file=sys.stderr,
        )
        return 1
    result = doc.get("result") or {}
    if args.output:
        Path(args.output).write_text(
            _json.dumps(doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"job {job.get('id')}: {job.get('state')} "
            f"(served from {job.get('served_from')})"
        )
        print(
            f"  {ptg.name}: makespan {result.get('makespan'):.6g} on "
            f"{request['platform']} "
            f"({result.get('generations')} generations, "
            f"{result.get('evaluations')} evaluations, "
            f"algorithm {result.get('algorithm')}, "
            f"seed {result.get('seed')})"
        )
    return 0


def _format_slo_rows(rows: list[dict]) -> str:
    lines = [
        f"{'slo':<22} {'objective':>9} {'compliance':>10} "
        f"{'budget':>7} {'burn(60s/600s)':>15} {'status':>8}"
    ]
    for row in rows:
        burns = row.get("burn_rates", {})
        burn = "/".join(
            f"{burns[k]:.2f}" for k in sorted(burns, key=lambda s: int(s[:-1]))
        ) or "-"
        status = (
            "ALERT"
            if row.get("alerting")
            else ("ok" if row.get("ok") else "VIOLATED")
        )
        lines.append(
            f"{row['name']:<22} {row['objective']:>9.4f} "
            f"{row['compliance']:>10.5f} "
            f"{row.get('budget_remaining', 0.0):>7.2f} {burn:>15} "
            f"{status:>8}"
        )
    return "\n".join(lines)


def _cmd_slo(args) -> int:
    """Evaluate SLOs: committed bench baselines or a live daemon."""
    import json as _json

    from .obs.slo import evaluate_bench

    failures = 0
    if args.bench:
        for path in args.bench:
            try:
                doc = _json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                print(f"{path}: unreadable: {exc}", file=sys.stderr)
                failures += 1
                continue
            rows = evaluate_bench(doc, path)
            if not rows:
                print(f"{path}: no SLO mapping (skipped)")
                continue
            print(f"{path}:")
            for row in rows:
                verdict = "ok" if row["ok"] else "VIOLATED"
                print(
                    f"  {row['name']:<28} value={row['value']:g} "
                    f"budget={row['budget']:g} {verdict}"
                )
                if not row["ok"]:
                    failures += 1
        return 1 if failures else 0

    from .service import ServiceClient
    from .exceptions import ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        stats = client.stats()
    except (ServiceError, OSError) as exc:
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return 1
    rows = stats.get("slo") or []
    if not rows:
        print("daemon reports no SLO data", file=sys.stderr)
        return 1
    print(_format_slo_rows(rows))
    bad = [r for r in rows if r.get("alerting") or not r.get("ok")]
    return 1 if bad else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-emts",
        description=(
            "EMTS: evolutionary scheduling of parallel task graphs "
            "(reproduction of Hunold & Lepping, CLUSTER 2011)"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=list(LOG_LEVELS),
        default="warning",
        help="verbosity of repro.* loggers (default: warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ptg_options(p, require_kind=True):
        p.add_argument(
            "--kind",
            choices=["fft", "strassen", "daggen"],
            default="daggen" if not require_kind else None,
            required=require_kind,
            help="PTG family to generate",
        )
        p.add_argument(
            "--size",
            type=int,
            default=50,
            help="FFT size (power of two) or daggen task count",
        )
        p.add_argument("--width", type=float, default=0.5)
        p.add_argument("--regularity", type=float, default=0.5)
        p.add_argument("--density", type=float, default=0.5)
        p.add_argument("--jump", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)

    def add_evaluator_options(p):
        p.add_argument(
            "--profile",
            metavar="PATH",
            default=None,
            help=(
                "run under cProfile, dump binary stats to PATH and "
                "print the top cumulative-time entries"
            ),
        )
        p.add_argument(
            "--verify",
            choices=["off", "sample", "full"],
            default="off",
            help=(
                "differentially verify makespans against every "
                "scheduling engine (sample = cheap spot checks, "
                "full = every evaluation)"
            ),
        )
        p.add_argument(
            "--islands",
            action="store_true",
            help=(
                "run the island model (mu single-parent islands with "
                "ring migration) instead of classic panmictic EMTS"
            ),
        )
        p.add_argument(
            "--migration-interval",
            type=int,
            default=1,
            metavar="G",
            help=(
                "generations between island ring migrations "
                "(island mode only; default 1)"
            ),
        )

    def add_obs_options(p):
        p.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help=(
                "write a structured JSONL run trace here (summarize "
                "with 'repro-emts report-trace PATH')"
            ),
        )
        p.add_argument(
            "--metrics-out",
            metavar="PATH",
            default=None,
            help=(
                "write the run's metrics registry here on exit "
                "(.prom = Prometheus exposition, otherwise JSON)"
            ),
        )

    g = sub.add_parser("generate", help="generate a PTG file")
    add_ptg_options(g)
    g.add_argument("output", help="output path (.json or .dot)")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("schedule", help="schedule a PTG")
    s.add_argument(
        "--ptg", help="PTG JSON file (omit to generate one)", default=None
    )
    add_ptg_options(s, require_kind=False)
    s.add_argument(
        "--platform",
        default="grelon",
        help="platform preset (chti | grelon)",
    )
    s.add_argument(
        "--model", default="model2", help="execution-time model"
    )
    s.add_argument(
        "--algorithm",
        default="emts5",
        help="emts5 | emts10 | mcpa | hcpa | cpa | ...",
    )
    s.add_argument(
        "--gantt", action="store_true", help="print an ASCII Gantt chart"
    )
    s.add_argument("--svg", default=None, help="write a Gantt SVG here")
    s.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "journal a resumable checkpoint here after every EMTS "
            "generation (EMTS algorithms only)"
        ),
    )
    s.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help=(
            "resume an interrupted EMTS run from this checkpoint "
            "(bit-identical to an uninterrupted run)"
        ),
    )
    s.add_argument(
        "--max-wall-time",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "hard wall-clock budget; the run stops gracefully at the "
            "next generation boundary once it expires"
        ),
    )
    add_evaluator_options(s)
    add_obs_options(s)
    s.set_defaults(func=_cmd_schedule)

    o = sub.add_parser(
        "online",
        help=(
            "execute a schedule reactively under injected faults "
            "(crashes, failures, stragglers) with frontier "
            "rescheduling"
        ),
    )
    o.add_argument(
        "--ptg", help="PTG JSON file (omit to generate one)", default=None
    )
    add_ptg_options(o, require_kind=False)
    o.add_argument(
        "--platform",
        default="grelon",
        help="platform preset (chti | grelon)",
    )
    o.add_argument(
        "--model", default="model2", help="execution-time model"
    )
    o.add_argument(
        "--algorithm",
        default="mcpa",
        help="planner for the initial schedule (mcpa | hcpa | emts5 ...)",
    )
    o.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="per-processor crash probability (never kills them all)",
    )
    o.add_argument(
        "--failure-rate",
        type=float,
        default=0.0,
        help="per-task transient-failure probability",
    )
    o.add_argument(
        "--straggler-rate",
        type=float,
        default=0.0,
        help="per-task straggler probability",
    )
    o.add_argument(
        "--straggler-factor",
        type=float,
        default=2.0,
        help="duration inflation applied to straggling tasks",
    )
    o.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help=(
            "seed for sampling the fault plan (independent of --seed "
            "so the same faults can hit different plans)"
        ),
    )
    o.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="retries per task before the run aborts",
    )
    o.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="absolute completion deadline in simulated seconds",
    )
    o.add_argument(
        "--deadline-factor",
        type=float,
        default=None,
        metavar="F",
        help=(
            "deadline as a multiple of the planned makespan "
            "(e.g. 1.2 = 20%% slack)"
        ),
    )
    o.add_argument(
        "--reaction-budget",
        type=int,
        default=2048,
        metavar="EVALS",
        help=(
            "total frontier-mapper evaluations available for "
            "rescheduling; exhausting it degrades the reaction from "
            "evolution to repair to greedy patching"
        ),
    )
    add_obs_options(o)
    o.set_defaults(func=_cmd_online)

    f = sub.add_parser("figure", help="regenerate a paper figure")
    f.add_argument(
        "number", help="figure number (1-6) or 'all'"
    )
    f.add_argument("--seed", type=int, default=None)
    f.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="corpus scale for figures 4/5 (1.0 = full paper corpus)",
    )
    f.add_argument("--samples", type=int, default=200_000)
    f.add_argument("--output-dir", default=None)
    f.set_defaults(func=_cmd_figure)

    r = sub.add_parser(
        "runtime", help="measure EMTS run times (Section V)"
    )
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--repetitions", type=int, default=3)
    add_evaluator_options(r)
    r.set_defaults(func=_cmd_runtime)

    sc = sub.add_parser(
        "scalability",
        help="sweep EMTS's gain over MCPA across platform sizes",
    )
    sc.add_argument("--seed", type=int, default=None)
    sc.add_argument("--size", type=int, default=50)
    sc.add_argument("--instances", type=int, default=3)
    sc.add_argument(
        "--sizes",
        default="10,20,40,80,120,160",
        help="comma-separated processor counts",
    )
    sc.set_defaults(func=_cmd_scalability)

    cv = sub.add_parser(
        "convergence",
        help="best-vs-generation trajectories of EMTS5/EMTS10",
    )
    cv.add_argument("--seed", type=int, default=None)
    cv.add_argument("--size", type=int, default=50)
    cv.add_argument("--instances", type=int, default=3)
    cv.add_argument("--platform", default="grelon")
    cv.add_argument("--model", default="model2")
    add_evaluator_options(cv)
    cv.set_defaults(func=_cmd_convergence)

    ca = sub.add_parser(
        "campaign",
        help=(
            "run a figure sweep as a crash-only, resumable campaign "
            "(subprocess isolation, retries, quarantine)"
        ),
    )
    ca.add_argument(
        "--figure",
        type=int,
        default=4,
        choices=[4, 5],
        help="which relative-makespan figure to run",
    )
    ca.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help=(
            "campaign state directory; re-running with the same "
            "arguments resumes from it"
        ),
    )
    ca.add_argument("--seed", type=int, default=None)
    ca.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="corpus scale (1.0 = full paper corpus)",
    )
    ca.add_argument(
        "--trial-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock limit per trial attempt",
    )
    ca.add_argument(
        "--verify",
        choices=["off", "sample", "full"],
        default="off",
        help=(
            "differentially verify makespans inside every EMTS trial "
            "(sample = cheap spot checks, full = every evaluation)"
        ),
    )
    ca.add_argument(
        "--status",
        action="store_true",
        help="report the campaign directory's progress and exit",
    )
    ca.add_argument(
        "--quiet", action="store_true", help="suppress per-trial lines"
    )
    add_obs_options(ca)
    ca.set_defaults(func=_cmd_campaign)

    rt = sub.add_parser(
        "report-trace",
        help=(
            "summarize a --trace JSONL file or a serve --trace-dir "
            "(runs, phases, campaigns, request waterfalls)"
        ),
    )
    rt.add_argument(
        "trace",
        help=(
            "trace file written by --trace, or a service trace "
            "directory written by serve --trace-dir"
        ),
    )
    rt.set_defaults(func=_cmd_report_trace)

    c = sub.add_parser("corpus", help="build the evaluation corpus")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--scale", type=float, default=1.0)
    c.add_argument("--output", default=None)
    c.set_defaults(func=_cmd_corpus)

    sv = sub.add_parser(
        "serve",
        help="run the scheduling-as-a-service HTTP daemon",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port; 0 picks a free one (printed on startup)",
    )
    sv.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="N",
        help="warm worker threads executing EMTS runs (default: 2)",
    )
    sv.add_argument(
        "--spool",
        default=None,
        metavar="DIR",
        help=(
            "job spool directory: jobs and run checkpoints persist "
            "here, so a drained/crashed daemon resumes on restart "
            "(default: in-memory only)"
        ),
    )
    sv.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="global queue depth before 429 backpressure",
    )
    sv.add_argument(
        "--tenant-quota",
        type=int,
        default=64,
        help="max queued jobs per tenant before 429",
    )
    sv.add_argument(
        "--result-cache-size",
        type=int,
        default=256,
        help="entries in the cross-request result cache",
    )
    sv.add_argument(
        "--warm-problems",
        type=int,
        default=32,
        help="prepared problems kept warm per worker",
    )
    sv.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "distributed-tracing shard directory: the server and each "
            "worker attempt write JSONL span shards here, joined by "
            "`report-trace DIR` (default: tracing disabled)"
        ),
    )
    sv.set_defaults(func=_cmd_serve)

    so = sub.add_parser(
        "slo",
        help="evaluate service-level objectives (live daemon or bench files)",
    )
    so.add_argument("--host", default="127.0.0.1")
    so.add_argument("--port", type=int, default=8787)
    so.add_argument(
        "--bench",
        nargs="+",
        default=None,
        metavar="FILE",
        help=(
            "evaluate committed BENCH_*.json baselines against the "
            "pinned SLO budgets instead of querying a live daemon; "
            "exits non-zero if any baseline violates its budget"
        ),
    )
    so.set_defaults(func=_cmd_slo)

    sb = sub.add_parser(
        "submit",
        help="submit a scheduling job to a running daemon",
    )
    sb.add_argument("--host", default="127.0.0.1")
    sb.add_argument("--port", type=int, default=8787)
    sb.add_argument(
        "--ptg", help="PTG JSON file (omit to generate one)", default=None
    )
    add_ptg_options(sb, require_kind=False)
    sb.add_argument(
        "--platform",
        default="grelon",
        help="platform preset (chti | grelon)",
    )
    sb.add_argument(
        "--model", default="model2", help="execution-time model"
    )
    sb.add_argument(
        "--algorithm", default="emts5", help="emts5 | emts10"
    )
    sb.add_argument(
        "--generations",
        type=int,
        default=None,
        help="override the preset's generation budget",
    )
    sb.add_argument(
        "--max-wall-time",
        type=float,
        metavar="SECONDS",
        default=None,
        help="server-side wall-clock budget for the run",
    )
    sb.add_argument("--tenant", default="default")
    sb.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority 0 (default) .. 9 (highest)",
    )
    sb.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="give up after this many seconds (exit code 124)",
    )
    sb.add_argument(
        "--retries",
        type=int,
        default=5,
        help=(
            "retry transient failures (connection loss, 429/503) up to "
            "this many times with jittered backoff; 0 disables retries"
        ),
    )
    sb.add_argument(
        "--idempotency-key",
        default=None,
        metavar="KEY",
        help=(
            "explicit idempotency key for the submission (a fresh one "
            "is generated when omitted); resubmitting the same key "
            "returns the original job instead of enqueuing a duplicate"
        ),
    )
    sb.add_argument(
        "--poll-interval",
        type=float,
        default=0.1,
        help="job status polling period in seconds",
    )
    sb.add_argument(
        "--json",
        action="store_true",
        help="print the full response document as JSON",
    )
    sb.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the response document to this file",
    )
    sb.set_defaults(func=_cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_output=args.log_json)
    try:
        if getattr(args, "profile", None):
            return _run_profiled(args.func, args)
        return args.func(args)
    except KeyboardInterrupt:  # pragma: no cover - timing dependent
        # EMTS runs trap SIGINT themselves; anything else (generation,
        # figures, heuristics) has no partial result worth saving
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
