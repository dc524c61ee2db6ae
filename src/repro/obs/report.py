"""Human-readable summaries of traces (``repro-emts report-trace``).

One renderer for every trace: :func:`~repro.obs.assemble.load_trace`
turns a ``--trace`` file or a daemon's ``--trace-dir`` into span trees,
and :func:`render_trace_report` walks them.  Each request tree gets a
waterfall; each ``campaign_start`` node a per-trial digest; each
``online_start`` .. ``online_end`` run a fault/replan digest; and each
``run_start`` node a run digest: the problem and engine, throughput,
the per-phase wall-time breakdown with the kernel's share of wall time,
and an ASCII convergence curve.

A run's phases are summed from its children (:func:`run_phases`); a
version-1/2 run's recorded ``phase_seconds`` is shown as written.

Truncated, corrupt or undecodable traces, broken span nesting and
attrs the renderer cannot format all raise
:class:`~repro.exceptions.TraceError` naming the trace.
"""

from __future__ import annotations

from pathlib import Path

from ..exceptions import TraceError
from .assemble import SpanNode, TraceTree, load_trace

__all__ = ["render_trace_report", "run_phases"]

#: Phases counted as kernel time in the "kernel share" figure: the
#: fitness batches (which run the compiled C loop or its
#: reference-mapper fallback) plus the seed-baseline evaluations.
_KERNEL_PHASES = ("fitness_batch", "seed_fitness")


def run_phases(run: SpanNode) -> dict[str, float]:
    """Phase name -> seconds of one ``run_start`` node.

    ``phase`` children give ``kernel_build``, ``seeding`` and
    ``final_mapping``; ``evaluation`` children before the ``seed``
    event give ``seed_fitness``, those after it ``fitness_batch``;
    ``checkpoint`` durations give ``checkpoint``.  ``verify`` is the
    differential replay time, which runs inside the fitness batches:
    each ``evaluation``'s ``verify_seconds`` moves from its batch to
    ``verify``, so the phases partition the run.  A trace without
    per-batch values falls back to the ``verify`` event's
    ``overhead_seconds``, still counted inside the batches as well.
    ``evolve`` is the generation time outside fitness batches: the
    engine's own work around the mapper.
    """
    recorded = run.end_attrs.get("phase_seconds")
    if recorded is not None:  # versions 1 and 2 recorded the breakdown
        return {name: float(s) for name, s in recorded.items()}
    phases: dict[str, float] = {}

    def add(name: str, seconds) -> None:
        phases[name] = phases.get(name, 0.0) + float(seconds or 0.0)

    seeded = False
    generation_seconds = None
    batch_seconds = 0.0  # post-seed evaluation dur, verification included
    verify_event = None
    for child in run.children:
        if child.kind == "phase":
            add(child.attrs["name"], child.dur)
        elif child.kind == "seed":
            seeded = True
        elif child.kind == "evaluation":
            dur = float(child.dur or 0.0)
            verify = child.attrs.get("verify_seconds")
            if verify is not None:
                add("verify", verify)
            add(
                "fitness_batch" if seeded else "seed_fitness",
                dur - float(verify or 0.0),
            )
            if seeded:
                batch_seconds += dur
        elif child.kind == "checkpoint":
            add("checkpoint", child.dur)
        elif child.kind == "verify":
            verify_event = child
        elif child.kind == "generation":
            generation_seconds = (generation_seconds or 0.0) + float(
                child.attrs.get("elapsed_seconds", 0.0)
            )
    if "verify" not in phases and verify_event is not None:
        add("verify", verify_event.attrs.get("overhead_seconds"))
    if generation_seconds is not None:
        phases["evolve"] = max(0.0, generation_seconds - batch_seconds)
    return phases


# ----------------------------------------------------------------------
def _fmt_opt(value, fmt: str = "{:.6g}", missing: str = "-") -> str:
    return missing if value is None else fmt.format(value)


def _render_run(run: SpanNode, index: int, total: int) -> str:
    attrs, end_attrs = run.attrs, run.end_attrs
    kids = run.children
    generation_events = [c for c in kids if c.kind == "generation"]
    seeds = [c for c in kids if c.kind == "seed"]
    verifies = [c for c in kids if c.kind == "verify"]
    eval_stats = end_attrs.get("eval_stats", {})
    generations = int(
        end_attrs.get("generations", max(0, len(generation_events) - 1))
    )
    evaluations = int(
        eval_stats.get(
            "evaluations",
            sum(
                c.attrs.get("genomes", 0)
                for c in kids
                if c.kind == "evaluation"
            ),
        )
    )
    cache_hits = int(eval_stats.get("cache_hits", 0))
    dur = run.dur if run.complete else None

    lines: list[str] = []
    if total > 1:
        lines.append(f"=== run {index + 1} of {total} ===")
    problem = attrs.get("problem", {})
    where = (
        f"{problem.get('ptg_name', '?')} "
        f"({problem.get('num_tasks', '?')} tasks) on "
        f"{problem.get('cluster_name', '?')} "
        f"({problem.get('num_processors', '?')} processors)"
        if problem
        else "unknown problem"
    )
    flags = []
    if attrs.get("resumed", False):
        flags.append("resumed")
    if end_attrs.get("interrupted", False):
        flags.append("interrupted")
    if not run.complete:
        flags.append("trace incomplete (no run_end)")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    lines.append(
        f"run       : {attrs.get('algorithm', '?')} — {where}{suffix}"
    )
    engine = attrs.get("engine", end_attrs.get("engine", "?"))
    lines.append(f"engine    : {engine} kernel")
    lines.append(
        f"result    : makespan "
        f"{_fmt_opt(end_attrs.get('makespan'))} s after "
        f"{generations} generations"
    )
    seed_makespans = seeds[-1].attrs.get("makespans", {}) if seeds else {}
    if seed_makespans:
        lines.append(
            f"seeds     : best heuristic "
            f"{min(seed_makespans.values()):.6g} s "
            f"({', '.join(sorted(seed_makespans))})"
        )
    evals_per_sec = evaluations / dur if dur else None
    generations_per_sec = (
        generations / dur if dur and generations else None
    )
    lines.append(
        f"throughput: {evaluations} evaluations in "
        f"{_fmt_opt(dur, '{:.3f}')} s — "
        f"{_fmt_opt(evals_per_sec, '{:.1f}')} evals/s, "
        f"{_fmt_opt(generations_per_sec, '{:.2f}')} "
        "generations/s"
    )
    if cache_hits:
        # only traces of builds that memoized fitness values have hits
        hit_rate = cache_hits / evaluations if evaluations else 0.0
        lines.append(
            f"cache     : {cache_hits}/{evaluations} hits "
            f"({hit_rate:.1%} hit rate)"
        )
    extras = []
    checkpoints = sum(1 for c in kids if c.kind == "checkpoint")
    if checkpoints:
        extras.append(f"{checkpoints} checkpoints")
    verified = verifies[-1].attrs.get("verified", 0) if verifies else 0
    if verified:
        extras.append(
            f"{verified} evaluations differentially verified"
        )
    if extras:
        lines.append(f"robustness: {', '.join(extras)}")
    phases = run_phases(run)
    if phases:
        lines.append("phases    :")
        width = max(len(name) for name in phases)
        for name, seconds in sorted(
            phases.items(), key=lambda kv: kv[1], reverse=True
        ):
            share = f"{seconds / dur:>6.1%}" if dur else "     -"
            lines.append(
                f"  {name:<{width}}  {seconds:>9.4f} s  {share}"
            )
        kernel = sum(phases.get(p, 0.0) for p in _KERNEL_PHASES)
        share = _fmt_opt(kernel / dur if dur else None, "{:.1%}")
        lines.append(
            f"kernel share of wall time: {share} "
            f"({' + '.join(_KERNEL_PHASES)})"
        )
    curve = [
        (e.attrs.get("generation", i), e.attrs["best"])
        for i, e in enumerate(generation_events)
        if e.attrs.get("best") is not None
    ]
    if curve:
        lines.append("convergence (best makespan per generation):")
        worst = max(v for _, v in curve)
        for gen, best in curve:
            bar = "#" * (
                min(40, max(1, round(40 * best / worst))) if worst else 0
            )
            lines.append(f"  gen {gen:>3}  {best:>12.6g}  {bar}")
    return "\n".join(lines)


def _render_campaign(campaign: SpanNode) -> str:
    by_status: dict[str, int] = {}
    trials = [c for c in campaign.children if c.kind == "campaign_trial"]
    for t in trials:
        status = t.attrs.get("status", "?")
        by_status[status] = by_status.get(status, 0) + 1
    parts = ", ".join(
        f"{count} {status}" for status, count in sorted(by_status.items())
    )
    lines = [f"campaign  : {len(trials)} trials ({parts})"]
    if campaign.complete and campaign.dur is not None:
        lines.append(f"            total {campaign.dur:.3f} s")
    return "\n".join(lines)


def _render_online(siblings: list[SpanNode]) -> list[str]:
    """Digest of the ``online_start`` .. ``online_end`` runs in order.

    Online runtimes (:func:`repro.online.execute_online`) emit flat
    events rather than spans; runs are paired up among siblings, and a
    start without a matching end is reported as incomplete.
    """
    lines: list[str] = []
    run_no = 0
    current: SpanNode | None = None
    faults: dict[str, int] = {}
    replans = 0
    for event in siblings:
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
    return lines


# ----------------------------------------------------------------------
def _fmt_dur(dur: float | None) -> str:
    return "   -    " if dur is None else f"{dur:8.3f}s"


_WATERFALL_KINDS = {
    "request": "request",
    "queue_wait": "queue wait",
    "service_run_start": "run attempt",
    "run_start": "emts run",
    "online_start": "online run",
    "verify": "verify",
    "checkpoint": "checkpoint",
    "fault": "fault",
    "reschedule": "reschedule",
}


def _waterfall_node(node: SpanNode, depth: int, lines: list[str]) -> None:
    if node.kind == "phase":
        label = str(node.attrs.get("name", "phase"))
    else:
        label = _WATERFALL_KINDS.get(node.kind)
    if label is None and node.kind not in (
        "generation",
        "evaluation",
        "seed",
    ):
        label = node.kind
    if label is not None:
        indent = "  " * depth
        detail = _node_detail(node)
        flag = "" if node.complete else "  [UNCLOSED — crash?]"
        lines.append(
            f"  {_fmt_dur(node.dur)}  {indent}{label}"
            f"{':  ' + detail if detail else ''}{flag}"
        )
        depth += 1
    # generations/evaluations are summarized, not listed
    gens = sum(1 for c in node.children if c.kind == "generation")
    evals = sum(
        c.attrs.get("genomes", 0)
        for c in node.children
        if c.kind == "evaluation"
    )
    if gens or evals:
        indent = "  " * depth
        lines.append(
            f"  {'':>9}  {indent}· {gens} generations, "
            f"{int(evals)} genomes evaluated"
        )
    for child in node.children:
        if child.kind in ("generation", "evaluation"):
            continue
        _waterfall_node(child, depth, lines)


def _node_detail(node: SpanNode) -> str:
    a, z = node.attrs, node.end_attrs
    if node.kind == "request":
        return (
            f"{a.get('outcome', '?')} status={a.get('status', '?')} "
            f"tenant={a.get('tenant', '?')} "
            f"priority={a.get('priority', '?')}"
        )
    if node.kind == "queue_wait":
        return (
            f"priority={a.get('priority', '?')} "
            f"tenant={a.get('tenant', '?')}"
        )
    if node.kind == "service_run_start":
        parts = [f"attempt={a.get('attempt', '?')}"]
        if z.get("served_from"):
            parts.append(f"served_from={z['served_from']}")
        if z.get("state"):
            parts.append(f"state={z['state']}")
        if z.get("warm_hit") is not None:
            parts.append(f"warm_hit={z['warm_hit']}")
        return " ".join(parts)
    if node.kind == "run_start":
        problem = a.get("problem", {})
        parts = [str(a.get("algorithm", "?"))]
        if problem:
            parts.append(
                f"{problem.get('ptg_name', '?')}"
                f"/{problem.get('cluster_name', '?')}"
            )
        if z.get("makespan") is not None:
            parts.append(f"makespan={z['makespan']:.6g}")
        if a.get("resumed"):
            parts.append("resumed")
        if z.get("interrupted"):
            parts.append("interrupted")
        return " ".join(parts)
    if node.kind == "verify":
        return f"{a.get('verified', 0)} evaluations re-verified"
    if node.kind == "checkpoint":
        return f"generation {a.get('generation', '?')}"
    return ""


def _render_waterfall(tree: TraceTree) -> str:
    header = f"trace {tree.trace_id}"
    notes = []
    if tree.truncated_shards:
        notes.append(
            "torn shard(s): " + ", ".join(tree.truncated_shards)
        )
    if tree.crashed:
        notes.append("CRASHED — partial tree")
    if notes:
        header += f"  [{'; '.join(notes)}]"
    lines = [header, f"  shards: {', '.join(tree.shards)}"]
    for child in tree.root.children:
        _waterfall_node(child, 0, lines)
    return "\n".join(lines)


def _render(trees: list[TraceTree]) -> list[str]:
    nodes = [node for tree in trees for node in tree.root.walk()]
    runs = [n for n in nodes if n.kind == "run_start"]
    blocks = [_render_waterfall(t) for t in trees if t.trace_id]
    blocks += [
        _render_campaign(n) for n in nodes if n.kind == "campaign_start"
    ]
    online = [
        line for n in nodes for line in _render_online(n.children)
    ]
    if online:
        blocks.append("\n".join(online))
    blocks += [
        _render_run(run, i, len(runs)) for i, run in enumerate(runs)
    ]
    return blocks


def render_trace_report(path: str | Path) -> str:
    """The full ``report-trace`` text of a trace file or directory."""
    trees = load_trace(path)
    events = sum(tree.events for tree in trees)
    try:
        blocks = _render(trees)
    except (
        AttributeError,
        KeyError,
        OverflowError,
        RecursionError,
        TypeError,
        ValueError,
    ) as exc:
        raise TraceError(
            f"trace {path}: an event's attrs cannot be rendered "
            f"({exc!r})"
        ) from exc
    if not blocks:
        raise TraceError(
            f"trace {path} contains no request, run, campaign or "
            f"online spans ({events} events of other kinds)"
        )
    return "\n".join([f"trace     : {path} ({events} events)", *blocks])
