#!/usr/bin/env python3
"""The repository's benchmark: its workloads, end-to-end metrics and a
per-layer ledger.

    python3 perfbench/run.py --workload emts-offline --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median over fresh interpreters, each started and set up
from scratch), latency percentiles, throughput and peak RSS.
``--trace 1`` runs the workload untraced for half the time, then on the
same inputs with the layer wrappers of ``spans.py`` installed for the
other half; it prints the layer ledger and the per-layer metrics.

Times and rates are reported at a fixed reference speed: each is scaled
by the time a fixed pure-Python loop took beside it, divided into
``scenarios.REFERENCE_MS`` (see ``LEDGER.md``).  The provenance line
gives the loop's median, from which the times as measured follow.

Metric names and units come from ``BENCHMARK.json`` at the root of the
checkout, which lists the workloads the benchmark is judged on;
``service-cached`` runs the same way but is left out of that list (see
``LEDGER.md``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's provenance (kernel
engine, cores, Python, ``REPRO_CKERNEL_THREADS``, the reference loop's
median).  The exit code is
non-zero when any output check failed.  ``--smoke`` shrinks every
workload to tiny problems for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
#: fresh set-ups timed per run; their median is ``setup_s``
SETUP_REPEATS = 5
#: reference-loop samples taken before and after each set-up
SETUP_REFERENCE_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problems")
    parser.add_argument("--out", type=Path, help="also write the full result here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workload_classes() -> dict:
    import scenarios
    import service_load

    classes = (
        scenarios.EmtsOffline,
        service_load.ServiceRun,
        service_load.ServiceCached,
        scenarios.OnlineFaults,
    )
    return {cls.name: cls for cls in classes}


def kernel_engine() -> str:
    """Build (once per checkout) and load the native kernel; name the engine."""
    from repro.mapping import _cscheduler

    return "numpy" if _cscheduler.load()[1] is None else "c"


def time_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first operation.

    Returns the seconds as measured and the speed factor of the
    reference loop timed in this process just before and after.
    """
    from scenarios import reference_ms, speed_factor

    reference = [reference_ms() for _ in range(SETUP_REFERENCE_SAMPLES)]
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    try:
        elapsed = None
        for line in proc.stdout:
            if line.strip() == "READY":
                elapsed = time.perf_counter() - t0
                break
        proc.stdout.read()  # the probe's teardown
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if elapsed is None or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    reference += [reference_ms() for _ in range(SETUP_REFERENCE_SAMPLES)]
    return elapsed, speed_factor(reference)


def measure(args, workload, units) -> tuple[dict, list, list[str], list[str]]:
    """Run the workload; return (metrics, phases, problems, ledger lines)."""
    from metrics import compare_outputs, e2e_metrics, layer_metrics

    if args.trace == 0:
        repeats = 1 if args.smoke else SETUP_REPEATS
        probes = [time_setup(args) for _ in range(repeats)]
        print("set-up probes (as measured, speed factor): "
              + ", ".join(f"{s:.3f} s x {f:.3f}" for s, f in probes))
        setup_s = statistics.median(s * f for s, f in probes)
        workload.setup()
        try:
            phase = workload.run_phase(args.seconds)
            values = e2e_metrics(workload, phase, setup_s)
            problems = workload.check(phase)
        finally:
            workload.teardown()
        return values, [phase], problems, []
    workload.setup()
    try:
        half = args.seconds / 2.0
        untraced = workload.run_phase(half)
        workload.begin_traced()
        traced = workload.run_phase(half)
        recorder = workload.end_traced()
        problems = workload.check(untraced) + workload.check(traced)
        problems += compare_outputs(untraced, traced)
    finally:
        workload.teardown()
    values, lines = layer_metrics(workload, untraced, traced, recorder, units)
    return values, [untraced, traced], problems, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    classes = workload_classes()
    if args.workload not in classes:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # the native kernel, the compiler's scratch files and every daemon's
    # spool stay inside the checkout
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["REPRO_CKERNEL_CACHE"] = str(WORK / "ckernel")
    # a SIGTERM unwinds through the finally blocks that stop the daemon
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = classes[args.workload](args.seed, args.smoke)
    if args.setup_probe:
        try:
            workload.setup()
            print("READY", flush=True)
        finally:
            workload.teardown()
        return 0

    engine = kernel_engine()
    spec = contract["per_layer"] if args.trace else contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    values, phases, problems, ledger_lines = measure(args, workload, units)
    reference = [ms for phase in phases for ms in phase.reference]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec
    }
    failed = sum(p.failed for p in phases)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(len(p.ops) for p in phases),
        "failed": failed,
        "metrics": metrics,
    }
    provenance = {
        "engine": engine,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "ckernel_threads": os.environ.get("REPRO_CKERNEL_THREADS", "1"),
        "reference_loop_ms": statistics.median(reference) if reference else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }

    first = phases[0]
    print(f"{args.workload}: {len(first.ops)} operations in {first.wall_s:.2f} s"
          f" ({'traced run' if args.trace else 'untraced'}),"
          f" speed factor {first.speed_factor:.3f}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    for line in ledger_lines:
        print(line)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if args.out is not None:
        doc = dict(result, provenance=provenance, problems=problems, ledger=ledger_lines)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
