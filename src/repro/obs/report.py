"""Human-readable summaries of trace files (``repro-emts report-trace``).

Renders, per run span found in the trace: the problem and engine
configuration, throughput (evaluations/sec, generations/sec), cache
effectiveness, the per-phase wall-time breakdown with the kernel's
share of wall time, and an ASCII convergence curve.  Campaign spans get
a per-trial digest.

All functions raise :class:`~repro.exceptions.TraceError` with file and
line context for truncated or corrupt traces (the parsing itself lives
in :func:`repro.obs.trace.read_trace`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..exceptions import TraceError
from .trace import TraceEvent, read_trace

__all__ = ["summarize_runs", "render_trace_report"]

#: Phases counted as kernel time in the "kernel share" figure: the
#: fitness batches (which run the compiled C loop or its numpy
#: fallback) plus the seed-baseline evaluations.
_KERNEL_PHASES = ("fitness_batch", "seed_fitness")


def summarize_runs(events: list[TraceEvent]) -> list[dict[str, Any]]:
    """One summary dict per ``run_start``..``run_end`` span.

    Tolerates a missing ``run_end`` (an interrupted writer): the
    summary is then flagged ``"incomplete": True`` and derived from the
    events seen so far.
    """
    runs: list[dict[str, Any]] = []
    open_runs: dict[int, dict[str, Any]] = {}
    seen_spans: set[int] = set()
    for event in events:
        seen_spans.add(event.span)
        if event.kind == "run_start":
            open_runs[event.span] = {
                "start": event,
                "generations": [],
                "evaluations": [],
                "checkpoints": 0,
                "verify": None,
                "seed": None,
                "end": None,
            }
        elif event.kind == "run_end":
            run = open_runs.pop(event.parent, None)
            if run is None:
                raise TraceError(
                    f"run_end event (span {event.span}) closes span "
                    f"{event.parent}, but no matching run_start is "
                    "open — trace out of order or corrupt"
                )
            run["end"] = event
            runs.append(run)
        elif event.kind in (
            "generation",
            "evaluation",
            "checkpoint",
            "verify",
            "seed",
        ):
            run = open_runs.get(event.parent)
            if run is None:
                # mixed traces are normal — campaigns nest these under
                # trial events, service shards under service_run spans,
                # and the worker's acceptance verify lands after
                # run_end — but a parent *nobody emitted* is not a
                # mixture, it is broken nesting, and report-trace must
                # exit non-zero rather than shrug it off
                if (
                    event.parent is None
                    or event.parent not in seen_spans
                ):
                    raise TraceError(
                        f"{event.kind} event (span {event.span}) "
                        f"parents to span {event.parent!r}, which no "
                        "event in this trace emitted — span nesting "
                        "is structurally broken"
                    )
                continue
            if event.kind == "generation":
                run["generations"].append(event)
            elif event.kind == "evaluation":
                run["evaluations"].append(event)
            elif event.kind == "checkpoint":
                run["checkpoints"] += 1
            elif event.kind == "verify":
                run["verify"] = event
            elif event.kind == "seed":
                run["seed"] = event
    for run in open_runs.values():  # writer died mid-run
        run["incomplete"] = True
        runs.append(run)
    return [_digest(run) for run in runs]


def _digest(run: dict[str, Any]) -> dict[str, Any]:
    start: TraceEvent = run["start"]
    end: TraceEvent | None = run["end"]
    attrs = start.attrs
    end_attrs = end.attrs if end is not None else {}
    eval_stats = end_attrs.get("eval_stats", {})
    phases: dict[str, float] = dict(
        end_attrs.get("phase_seconds", {})
    )
    dur = end.dur if end is not None and end.dur is not None else None
    generations = end_attrs.get(
        "generations", max(0, len(run["generations"]) - 1)
    )
    evaluations = eval_stats.get(
        "evaluations",
        sum(e.attrs.get("genomes", 0) for e in run["evaluations"]),
    )
    cache_hits = eval_stats.get("cache_hits", 0)
    kernel_seconds = sum(phases.get(p, 0.0) for p in _KERNEL_PHASES)
    curve = [
        (e.attrs.get("generation", i), e.attrs.get("best"))
        for i, e in enumerate(run["generations"])
        if e.attrs.get("best") is not None
    ]
    return {
        "algorithm": attrs.get("algorithm", "?"),
        "problem": attrs.get("problem", {}),
        "engine": attrs.get("engine", end_attrs.get("engine", "?")),
        "resumed": attrs.get("resumed", False),
        "incomplete": bool(run.get("incomplete", False)),
        "interrupted": bool(end_attrs.get("interrupted", False)),
        "makespan": end_attrs.get("makespan"),
        "seed_makespans": (
            run["seed"].attrs.get("makespans", {})
            if run["seed"] is not None
            else {}
        ),
        "generations": int(generations),
        "evaluations": int(evaluations),
        "cache_hits": int(cache_hits),
        "hit_rate": (
            cache_hits / evaluations if evaluations else 0.0
        ),
        "batches": len(run["evaluations"]),
        "checkpoints": run["checkpoints"],
        "verified": (
            run["verify"].attrs.get("verified", 0)
            if run["verify"] is not None
            else 0
        ),
        "run_seconds": dur,
        "evals_per_sec": (evaluations / dur) if dur else None,
        "generations_per_sec": (
            (generations / dur) if dur and generations else None
        ),
        "phase_seconds": phases,
        "kernel_seconds": kernel_seconds,
        "kernel_share": (kernel_seconds / dur) if dur else None,
        "convergence": curve,
    }


# ----------------------------------------------------------------------
def _fmt_opt(value, fmt: str = "{:.6g}", missing: str = "-") -> str:
    return missing if value is None else fmt.format(value)


def _render_run(summary: dict[str, Any], index: int, total: int) -> str:
    lines: list[str] = []
    if total > 1:
        lines.append(f"=== run {index + 1} of {total} ===")
    problem = summary["problem"]
    where = (
        f"{problem.get('ptg_name', '?')} "
        f"({problem.get('num_tasks', '?')} tasks) on "
        f"{problem.get('cluster_name', '?')} "
        f"({problem.get('num_processors', '?')} processors)"
        if problem
        else "unknown problem"
    )
    flags = []
    if summary["resumed"]:
        flags.append("resumed")
    if summary["interrupted"]:
        flags.append("interrupted")
    if summary["incomplete"]:
        flags.append("trace incomplete (no run_end)")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    lines.append(f"run       : {summary['algorithm']} — {where}{suffix}")
    lines.append(f"engine    : {summary['engine']} kernel")
    lines.append(
        f"result    : makespan "
        f"{_fmt_opt(summary['makespan'])} s after "
        f"{summary['generations']} generations"
    )
    if summary["seed_makespans"]:
        best_seed = min(summary["seed_makespans"].values())
        lines.append(
            f"seeds     : best heuristic {best_seed:.6g} s "
            f"({', '.join(sorted(summary['seed_makespans']))})"
        )
    lines.append(
        f"throughput: {summary['evaluations']} evaluations in "
        f"{_fmt_opt(summary['run_seconds'], '{:.3f}')} s — "
        f"{_fmt_opt(summary['evals_per_sec'], '{:.1f}')} evals/s, "
        f"{_fmt_opt(summary['generations_per_sec'], '{:.2f}')} "
        "generations/s"
    )
    if summary["cache_hits"]:
        # only traces of builds that memoized fitness values have hits
        lines.append(
            f"cache     : {summary['cache_hits']}/"
            f"{summary['evaluations']} hits "
            f"({summary['hit_rate']:.1%} hit rate)"
        )
    extras = []
    if summary["checkpoints"]:
        extras.append(f"{summary['checkpoints']} checkpoints")
    if summary["verified"]:
        extras.append(
            f"{summary['verified']} evaluations differentially "
            "verified"
        )
    if extras:
        lines.append(f"robustness: {', '.join(extras)}")
    phases = summary["phase_seconds"]
    if phases:
        lines.append("phases    :")
        dur = summary["run_seconds"]
        width = max(len(name) for name in phases)
        for name, seconds in sorted(
            phases.items(), key=lambda kv: kv[1], reverse=True
        ):
            share = f"{seconds / dur:>6.1%}" if dur else "     -"
            lines.append(
                f"  {name:<{width}}  {seconds:>9.4f} s  {share}"
            )
        lines.append(
            f"kernel share of wall time: "
            f"{_fmt_opt(summary['kernel_share'], '{:.1%}')} "
            f"({' + '.join(_KERNEL_PHASES)})"
        )
    curve = summary["convergence"]
    if curve:
        lines.append("convergence (best makespan per generation):")
        worst = max(v for _, v in curve)
        for gen, best in curve:
            bar = "#" * max(1, round(40 * best / worst)) if worst else ""
            lines.append(f"  gen {gen:>3}  {best:>12.6g}  {bar}")
    return "\n".join(lines)


def _render_campaign(events: list[TraceEvent]) -> str:
    trials = [e for e in events if e.kind == "campaign_trial"]
    if not trials:
        return ""
    by_status: dict[str, int] = {}
    for t in trials:
        status = t.attrs.get("status", "?")
        by_status[status] = by_status.get(status, 0) + 1
    parts = ", ".join(
        f"{count} {status}" for status, count in sorted(by_status.items())
    )
    lines = [f"campaign  : {len(trials)} trials ({parts})"]
    end = next(
        (e for e in events if e.kind == "campaign_end"), None
    )
    if end is not None and end.dur is not None:
        lines.append(f"            total {end.dur:.3f} s")
    return "\n".join(lines)


def _render_online(events: list[TraceEvent]) -> str:
    """Digest of ``online_start``..``online_end`` reactive executions.

    Online runtimes (:func:`repro.online.execute_online`) emit flat
    events rather than spans; runs are paired up in file order, and a
    start without a matching end is reported as incomplete.
    """
    starts = [e for e in events if e.kind == "online_start"]
    if not starts:
        return ""
    lines: list[str] = []
    run_no = 0
    current: TraceEvent | None = None
    faults: dict[str, int] = {}
    replans = 0
    for event in events:
        if event.kind == "online_start":
            current = event
            faults = {}
            replans = 0
            run_no += 1
        elif current is None:
            continue
        elif event.kind == "fault":
            name = event.attrs.get("event", "?")
            faults[name] = faults.get(name, 0) + 1
        elif event.kind == "reschedule":
            if event.attrs.get("event") == "reschedule-applied":
                replans += 1
        elif event.kind == "online_end":
            a, z = current.attrs, event.attrs
            deadline = a.get("deadline")
            bound = (
                f", deadline {deadline:.6g} s"
                if deadline is not None
                else ""
            )
            lines.append(
                f"online    : {a.get('tasks', '?')} tasks on "
                f"{a.get('processors', '?')} processors — planned "
                f"{_fmt_opt(a.get('planned_makespan'))} s{bound}"
            )
            if faults:
                detail = ", ".join(
                    f"{n} {k}" for k, n in sorted(faults.items())
                )
                lines.append(
                    f"  faults  : {z.get('faults_injected', 0)} "
                    f"injected ({detail}), "
                    f"{z.get('retries', 0)} retries"
                )
            lines.append(
                f"  replans : {replans} applied, budget used "
                f"{z.get('budget_used', 0)} evaluations"
            )
            verified = " (verified)" if z.get("verified") else ""
            lines.append(
                f"  outcome : {z.get('outcome', '?')} — makespan "
                f"{_fmt_opt(z.get('makespan'))} s{verified}"
            )
            current = None
    if current is not None:  # writer died mid-run
        lines.append(
            f"online    : run {run_no} incomplete (no online_end)"
        )
    return "\n".join(lines)


def render_trace_report(path: str | Path) -> str:
    """The full ``report-trace`` text for one trace file."""
    path = Path(path)
    events = read_trace(path)
    summaries = summarize_runs(events)
    campaign = _render_campaign(events)
    online = _render_online(events)
    if not summaries and not campaign and not online:
        raise TraceError(
            f"trace file {path} contains no run, campaign or online "
            f"spans ({len(events)} events of other kinds)"
        )
    blocks = [f"trace     : {path} ({len(events)} events)"]
    if campaign:
        blocks.append(campaign)
    if online:
        blocks.append(online)
    for i, summary in enumerate(summaries):
        blocks.append(_render_run(summary, i, len(summaries)))
    return "\n".join(blocks)
