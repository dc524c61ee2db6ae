"""End-to-end and per-layer metrics from measured phases and spans.

Every time and rate is reported at the reference speed (see
``scenarios.reference_ms``): an operation's latency is multiplied by its
own speed factor; a wall time by the time-weighted factor of the
operations in it, a rate divided by that.
"""

from __future__ import annotations

from scenarios import latencies, mean_factor, percentile
from spans import Ledger

#: units that scale with the host's speed, and with which power
SPEED_POWER = {"s": 1, "ms": 1, "us": 1, "1/s": -1}


def e2e_metrics(workload, phase, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced phase.

    ``setup_s`` comes already scaled by the set-up's own factor.
    """
    samples = latencies(phase.ops)
    return {
        "setup_s": setup_s,
        "latency_ms_p50": percentile(samples, 50),
        "latency_ms_p90": percentile(samples, 90),
        "throughput_per_s": len(phase.ok_ops()) / (phase.wall_s * phase.speed_factor),
        "peak_rss_mb": workload.peak_rss_mb(phase),
    }


def compare_outputs(untraced, traced) -> list[str]:
    """The traced half must give the untraced half's answers."""
    first = {op.index: op.output for op in untraced.ok_ops()}
    common = [op for op in traced.ok_ops() if op.index in first]
    if not common:
        return ["no operation ran in both the untraced and the traced half"]
    return [
        f"operation {op.index}: traced output differs from untraced"
        for op in common
        if op.output != first[op.index]
    ]


def layer_metrics(workload, untraced, traced, recorder, units) -> tuple[dict, list[str]]:
    """Per-layer metrics and the printed ledger of one traced run.

    Span-based metrics come from the traced half; counts and timestamps
    that need no span (cache ratios, queue wait, genomes per second)
    come from the untraced half.  ``units`` maps a metric's name to its
    unit, which says how it scales with the host's speed: by the
    time-weighted factor of both halves together, except the overhead,
    which compares operations each at its own factor.  The printed
    ledger's times are as measured; its shares need no scaling.
    """
    ledger = Ledger(recorder, window=traced.window, root=workload.ledger_root)
    e2e_ms = sum(op.ms for op in traced.ok_ops())
    extra_rows = workload.ledger_rows(traced, ledger)
    attributed = ledger.attributed_ms() + sum(row[2] for row in extra_rows)

    def per_genome_us(total_ms: float, name: str) -> float:
        work = ledger.work.get(name, 0)
        return total_ms * 1e3 / work if work else 0.0

    evolve_ms = ledger.total_ms.get("ea.evolve", 0.0)
    kernel_in_evolve = sum(
        (r[4] - r[3]) * 1e3 for r in ledger.under("mapping.kernel", "ea.evolve")
    )
    checkpoints = ledger.spans("core.checkpoint")
    # the overhead compares the operations both halves ran, on the same inputs
    traced_ms = {op.index: op.scaled_ms for op in traced.ok_ops()}
    paired = [(op.scaled_ms, traced_ms[op.index]) for op in untraced.ok_ops()
              if op.index in traced_ms]
    untraced_p50 = percentile([ms for ms, _ in paired], 50)
    traced_p50 = percentile([ms for _, ms in paired], 50)
    metrics = {
        "core.mutation_us_per_genome": per_genome_us(
            ledger.total_ms.get("core.mutation", 0.0), "core.mutation"
        ),
        "mapping.kernel_us_per_genome": per_genome_us(
            ledger.total_ms.get("mapping.kernel", 0.0), "mapping.kernel"
        ),
        "mapping.kernel_genomes": ledger.work.get("mapping.kernel", 0)
        / (len(traced.ops) or 1),
        "core.evaluator.us_per_genome": per_genome_us(
            ledger.total_ms.get("core.evaluator", 0.0), "core.evaluator"
        ),
        "core.evaluator.self_us_per_genome": per_genome_us(
            ledger.self_ms_of("core.evaluator"), "core.evaluator"
        ),
        "ea.evolve_self_ms": ledger.self_ms_of("ea.evolve")
        / (ledger.count.get("ea.evolve", 0) or 1),
        "ea.python_share_of_generation": (
            1.0 - kernel_in_evolve / evolve_ms if evolve_ms else 0.0
        ),
        "core.seeding_ms": ledger.mean_ms("core.seeding"),
        "timemodels.table_build_ms": ledger.mean_ms("timemodels.table_build"),
        "mapping.kernel_build_ms": ledger.mean_ms("mapping.kernel_build"),
        "service.prepare_ms": ledger.mean_ms("service.prepare"),
        "core.checkpoint_ms": ledger.mean_ms("core.checkpoint"),
        "core.checkpoint_bytes": (
            sum(r[8] for r in checkpoints) / len(checkpoints) if checkpoints else 0.0
        ),
        "mapping.final_mapping_ms": ledger.mean_ms("mapping.final_mapping"),
        "verify.verify_ms": ledger.mean_ms("verify.verify", outermost=True),
        "service.protocol.parse_ms": ledger.mean_ms("service.protocol.parse"),
        "service.protocol.result_key_ms": ledger.mean_ms("service.protocol.result_key"),
        "service.submit_ms": ledger.mean_ms("service.submit"),
        "service.spool.persist_ms": ledger.mean_ms("service.spool.persist"),
        "unattributed_share": 1.0 - attributed / e2e_ms if e2e_ms else 0.0,
        "trace_overhead_pct": (
            (traced_p50 / untraced_p50 - 1.0) * 100.0 if untraced_p50 else 0.0
        ),
        "genomes_per_s": sum(op.genomes for op in untraced.ok_ops()) / untraced.wall_s,
        "latency_ms_p99": percentile(latencies(untraced.ops, scaled=False), 99),
        "error_rate": untraced.failed / (len(untraced.ops) or 1),
    }
    metrics.update(workload.layer_metrics(untraced, traced, ledger))
    factor = mean_factor(untraced, traced)
    metrics = {
        name: value * factor ** SPEED_POWER.get(units.get(name), 0)
        for name, value in metrics.items()
    }
    lines = [f"layer ledger ({workload.name}, traced half, {len(traced.ops)} operations):"]
    lines += ledger.table(e2e_ms, extra_rows)
    lines += workload.report(untraced, traced, ledger)
    return metrics, lines
