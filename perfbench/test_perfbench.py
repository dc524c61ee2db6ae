"""The benchmark's own tests: ``python -m pytest perfbench``.

A tiny-size smoke run of every workload, traced and untraced; a check
that the layer wrappers change no answer and are removed afterwards; the
ledger's self-time arithmetic; the scaling of times to the reference
speed; and the refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

os.environ.setdefault("REPRO_CKERNEL_CACHE", str(ROOT / ".bench_build" / "ckernel"))
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

#: every workload run.py knows, also those BENCHMARK.json leaves out
WORKLOADS = list(run.workload_classes())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path | None = None):
    script = script or HERE / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    doc = result_of(run_bench(workload, trace))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    spec = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        reported = doc["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


def emts_run(recorder=None):
    from repro.core import emts5
    from repro.platform import grelon
    from repro.timemodels import AmdahlModel
    from repro.workloads import generate_fft

    ptg = generate_fft(4, rng=5)
    if recorder is None:
        return emts5().schedule(ptg, grelon(), AmdahlModel(), rng=9)
    return recorder.op(
        emts5().schedule, ptg, grelon(), AmdahlModel(), rng=9,
        evaluator_wrapper=recorder.evaluator_wrapper, tag=0,
    )


def test_wrappers_change_no_answer_and_are_removed():
    before = spans.entry_point_objects()
    plain = emts_run()
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        assert all(a is not b for a, b in zip(before, spans.entry_point_objects()))
        traced = emts_run(recorder)
    finally:
        spans.uninstall(undo)
    assert all(a is b for a, b in zip(before, spans.entry_point_objects()))
    assert traced.makespan == plain.makespan
    assert traced.allocation.tobytes() == plain.allocation.tobytes()
    assert traced.evaluations == plain.evaluations

    ledger = spans.Ledger(recorder)
    for layer in ("core.mutation", "mapping.kernel", "core.evaluator", "ea.evolve",
                  "core.seeding", "timemodels.table_build", "mapping.kernel_build",
                  "mapping.final_mapping"):
        assert ledger.count[layer] > 0, layer
    # every span is nested under the one operation, whose duration the
    # self times of all spans add up to
    (op,) = ledger.spans("op")
    assert recorder.tags[op[0]] == 0
    assert sum(ledger.self_ms.values()) == pytest.approx((op[4] - op[3]) * 1e3)
    assert ledger.work["core.evaluator"] == traced.evaluation_stats.evaluations


def test_ledger_self_time_subtracts_children():
    recorder = spans.SpanRecorder()
    # (id, name, thread, start, end, parent, root, n, extra)
    recorder.records = [
        (2, "mapping.kernel", 1, 1.0, 2.0, 1, 1, 10, (23, 20)),
        (3, "core.mutation", 1, 2.5, 3.0, 1, 1, 1, None),
        (1, "ea.evolve", 1, 0.0, 4.0, 0, 1, 1, None),
    ]
    ledger = spans.Ledger(recorder)
    assert ledger.self_ms[1] == pytest.approx(2500.0)
    assert ledger.attributed_ms() == pytest.approx(4000.0)
    assert ledger.under("mapping.kernel", "ea.evolve") == [recorder.records[0]]
    assert ledger.work["mapping.kernel"] == 10
    window = (recorder.epoch_offset + 5.0, recorder.epoch_offset + 6.0)
    assert spans.Ledger(recorder, window=window).records == []


def test_times_are_scaled_to_the_reference_speed():
    from metrics import e2e_metrics
    from scenarios import REFERENCE_MS, Op, Phase, Workload, factor_between

    samples = [(1.0, REFERENCE_MS), (2.0, 2 * REFERENCE_MS), (3.0, 2 * REFERENCE_MS)]
    assert factor_between(samples, 1.5, 3.5) == pytest.approx(0.5)
    # no sample in flight: the nearest one
    assert factor_between(samples, 1.4, 1.6) == pytest.approx(1.0)
    assert factor_between(samples, 9.0, 9.5) == pytest.approx(0.5)

    # 10 ms on a host at half the reference speed, 30 ms at full speed
    ops = [Op(0, 10.0, True, factor=0.5), Op(1, 30.0, True, factor=1.0)]
    phase = Phase(ops=ops, wall_s=0.04, window=(0.0, 1.0))
    assert phase.speed_factor == pytest.approx(35.0 / 40.0)
    values = e2e_metrics(Workload(1, True), phase, setup_s=1.0)
    assert values["latency_ms_p50"] == pytest.approx(17.5)
    assert values["throughput_per_s"] == pytest.approx(2 / 0.035)


def test_spans_survive_a_dump(tmp_path):
    recorder = spans.SpanRecorder()
    recorder.records = [(1, "mapping.kernel", 7, 0.5, 0.75, 0, 1, 3, (39, 120))]
    recorder.tags = {1: "job-1"}
    recorder.dump(tmp_path / "spans.json")
    loaded = spans.SpanRecorder.load(tmp_path / "spans.json")
    assert loaded.records == recorder.records
    assert loaded.tags == recorder.tags
    assert loaded.epoch_offset == recorder.epoch_offset


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("emts-offline", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
