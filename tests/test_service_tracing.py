"""End-to-end distributed tracing through the serving stack.

The acceptance criteria of the tracing PR, executed for real: a
``serve → submit`` round trip renders one causal span tree per job with
queue/run/verify phases, bit-identical across two same-seed runs once
timestamps are stripped; a worker killed mid-run leaves shards the
assembler still joins into a crash-flagged partial tree; and the SLO
engine surfaces on ``/v1/stats``, ``/metrics`` and the ``slo`` CLI.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.graph import ptg_to_dict
from repro.obs import assemble_traces, canonical_tree
from repro.service import SchedulingService, ServiceClient
from repro.testing import ServiceDaemon
from repro.util import CRASH_EXIT_CODE
from repro.workloads import generate_fft

GOLDEN = Path(__file__).parent / "data" / "golden_service_trace.json"

#: three generations: enough for generation/verify events, cheap enough
#: to run the round trip twice per test
GENERATIONS = 3


def make_doc(seed=7, **extra):
    doc = {
        "ptg": ptg_to_dict(generate_fft(4, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
        "generations": GENERATIONS,
    }
    doc.update(extra)
    return doc


def traced_round_trip(trace_dir, docs, workers=1):
    """Serve ``docs`` through an in-process daemon writing trace shards."""
    import asyncio

    service = SchedulingService(
        port=0, workers=workers, trace_dir=str(trace_dir)
    )
    ready = threading.Event()

    def run():
        async def main():
            await service.start()
            ready.set()
            await service._drained.wait()
            assert service._server is not None
            service._server.close()
            await service._server.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=15), "service did not start"
    client = ServiceClient(port=service.bound_port, timeout=60.0)
    results = [client.schedule(doc, timeout=120) for doc in docs]
    stats = client.stats()
    metrics_text = client.metrics_text()
    service.request_drain()
    thread.join(timeout=30)
    if service.tracer is not None:
        service.tracer.close()
    return results, stats, metrics_text


class TestRoundTrip:
    def test_one_causal_tree_with_every_phase(self, tmp_path):
        trace_dir = tmp_path / "traces"
        results, _, _ = traced_round_trip(trace_dir, [make_doc()])
        assert results[0]["job"]["state"] == "done"
        (tree,) = assemble_traces(trace_dir)
        assert tree.crashed is False
        kinds = [c.kind for c in tree.root.children]
        assert kinds == ["request", "queue_wait"]
        request = tree.root.children[0]
        assert request.attrs["outcome"] == "accepted"
        assert request.attrs["status"] == 202
        (queue_wait,) = [
            c for c in tree.root.children if c.kind == "queue_wait"
        ]
        (service_run,) = queue_wait.children
        assert service_run.kind == "service_run_start"
        assert service_run.end_attrs["state"] == "done"
        walked = [n.kind for n in service_run.walk()]
        assert "run_start" in walked
        assert "verify" in walked
        assert "generation" in walked

    def test_same_seed_trees_bit_identical(self, tmp_path):
        canon = []
        for sub in ("a", "b"):
            trace_dir = tmp_path / sub
            traced_round_trip(trace_dir, [make_doc()])
            (tree,) = assemble_traces(trace_dir)
            canon.append(
                json.dumps(canonical_tree(tree), sort_keys=True)
            )
        assert canon[0] == canon[1]

    def test_matches_committed_golden_tree(self, tmp_path):
        trace_dir = tmp_path / "traces"
        traced_round_trip(trace_dir, [make_doc()])
        (tree,) = assemble_traces(trace_dir)
        got = canonical_tree(tree)
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(
                json.dumps(got, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert got == expected, (
            "assembled trace diverged from the committed golden tree; "
            "if the trace schema changed intentionally, regenerate "
            "with REPRO_UPDATE_GOLDEN=1 and commit the diff"
        )

    def test_cached_result_traces_without_a_run(self, tmp_path):
        trace_dir = tmp_path / "traces"
        doc = make_doc(seed=11)
        traced_round_trip(trace_dir, [doc, doc])
        (tree,) = assemble_traces(trace_dir)
        requests = [
            c for c in tree.root.children if c.kind == "request"
        ]
        # the repeat hit the result cache at submit time: a second
        # request event, but still exactly one execution attempt
        assert [r.attrs["outcome"] for r in requests] == [
            "accepted",
            "result-cache",
        ]
        attempts = [
            c for c in tree.root.children if c.kind == "queue_wait"
        ]
        assert len(attempts) == 1

    def test_distinct_seeds_distinct_trees(self, tmp_path):
        trace_dir = tmp_path / "traces"
        traced_round_trip(
            trace_dir, [make_doc(seed=7), make_doc(seed=8)]
        )
        trees = assemble_traces(trace_dir)
        assert len(trees) == 2
        assert trees[0].trace_id != trees[1].trace_id

    def test_disabled_tracing_writes_nothing(self, tmp_path):
        import asyncio

        service = SchedulingService(port=0, workers=1)
        assert service.tracer is None
        assert service.pool.trace_dir is None
        ready = threading.Event()

        def run():
            async def main():
                await service.start()
                ready.set()
                await service._drained.wait()
                service._server.close()
                await service._server.wait_closed()

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=15)
        client = ServiceClient(port=service.bound_port, timeout=60.0)
        doc = client.schedule(make_doc(seed=13), timeout=120)
        assert doc["job"]["state"] == "done"
        service.request_drain()
        thread.join(timeout=30)
        assert list(tmp_path.rglob("*.jsonl")) == []


class TestSLOSurfaces:
    def test_stats_and_metrics_expose_slo_state(self, tmp_path):
        _, stats, metrics_text = traced_round_trip(
            tmp_path / "traces", [make_doc(seed=17)]
        )
        rows = {row["name"]: row for row in stats["slo"]}
        assert set(rows) == {
            "availability",
            "submit-latency",
            "online-reaction",
            "recovery",
        }
        assert rows["availability"]["ok"] is True
        assert rows["availability"]["alerting"] is False
        assert rows["availability"]["events"] >= 1
        assert "repro_slo_availability_compliance" in metrics_text
        assert "repro_slo_submit_latency_burn_60s" in metrics_text


class TestCLI:
    def test_report_trace_service_renders_waterfall(
        self, tmp_path, capsys
    ):
        trace_dir = tmp_path / "traces"
        traced_round_trip(trace_dir, [make_doc(seed=19)])
        rc = cli_main(["report-trace", str(trace_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "queue wait" in out
        assert "run attempt" in out
        assert "emts run" in out
        assert "verify" in out

    def test_report_trace_service_broken_nesting_exits_nonzero(
        self, tmp_path
    ):
        from repro.obs import TraceContext, Tracer, derive_trace_id

        tid = derive_trace_id("broken")
        for name, anchor in (("a.jsonl", "a"), ("b.jsonl", "b")):
            ctx = TraceContext(
                trace_id=tid,
                span_id=anchor * 16,
            )
            with Tracer(tmp_path / name, context=ctx.child("c")) as t:
                t.event("queue_wait", attrs={}, dur=0.0)
        with pytest.raises(SystemExit):
            cli_main(["report-trace", str(tmp_path)])

    def test_slo_bench_mode_green(self, capsys):
        bench = sorted(
            (Path(__file__).parent.parent / "benchmarks").glob(
                "BENCH_*.json"
            )
        )
        rc = cli_main(["slo", "--bench"] + [str(p) for p in bench])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service-p99" in out
        assert "recovery-jobs-lost" in out

    def test_slo_bench_mode_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_service.json"
        bad.write_text(
            json.dumps(
                {
                    "p99_ms": 9999.0,
                    "budgets": {"p99_ms": 5000.0},
                }
            )
        )
        rc = cli_main(["slo", "--bench", str(bad)])
        assert rc == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestCrossProcessCrash:
    def test_worker_killed_mid_run_leaves_assemblable_shards(
        self, tmp_path
    ):
        """Satellite (d): kill the worker mid-span, assemble anyway."""
        spool = tmp_path / "spool"
        trace_dir = tmp_path / "traces"
        doc = make_doc(
            generations=150, idempotency_key="idem-trace-crash"
        )

        daemon = ServiceDaemon(
            spool=spool,
            crash_point="mid-checkpoint:2",
            extra_args=("--trace-dir", str(trace_dir)),
        )
        daemon.start()
        client = ServiceClient(port=daemon.port, timeout=10)
        client.submit(doc)
        assert daemon.wait(timeout=120) == CRASH_EXIT_CODE

        (tree,) = assemble_traces(trace_dir)
        assert tree.crashed is True
        # the acked request and its attempt both made it to disk
        kinds = [c.kind for c in tree.root.children]
        assert kinds == ["request", "queue_wait"]
        (queue_wait,) = [
            c for c in tree.root.children if c.kind == "queue_wait"
        ]
        (service_run,) = queue_wait.children
        assert service_run.complete is False
        open_kinds = {
            n.kind for n in tree.root.walk() if not n.complete
        }
        assert "run_start" in open_kinds
        # rendering a crashed tree must not raise (postmortem path)
        rc = cli_main(["report-trace", str(trace_dir)])
        assert rc == 0

        # restart on the same spool: the recovered attempt writes a
        # NEW shard; the crashed one stays as evidence
        with ServiceDaemon(
            spool=spool, extra_args=("--trace-dir", str(trace_dir))
        ) as revived:
            from repro.service import RetryingServiceClient, RetryPolicy

            final = RetryingServiceClient(
                port=revived.port,
                policy=RetryPolicy(base=0.02, cap=0.2, seed=3),
            ).schedule(doc, timeout=300)
        assert final["job"]["state"] == "done"
        (tree,) = assemble_traces(trace_dir)
        assert tree.crashed is True  # attempt 1 still bears the wound
        attempts = [
            c for c in tree.root.children if c.kind == "queue_wait"
        ]
        assert len(attempts) == 2
        states = [
            sr.end_attrs.get("state")
            for a in attempts
            for sr in a.children
            if sr.kind == "service_run_start"
        ]
        assert "done" in states
