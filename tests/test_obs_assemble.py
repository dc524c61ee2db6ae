"""Tests for trace loading and cross-process assembly (repro.obs.assemble)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import TraceError
from repro.obs import (
    TraceContext,
    Tracer,
    assemble_traces,
    canonical_tree,
    derive_span_id,
    derive_trace_id,
    load_trace,
    render_trace_report,
)


def request_root(tag="req"):
    tid = derive_trace_id("test", tag)
    return TraceContext(
        trace_id=tid, span_id=derive_span_id(tid, "request")
    )


def write_server_shard(trace_dir, root, status=202):
    """A server-style shard: one explicit-ctx ``request`` event."""
    with Tracer(trace_dir / "server.jsonl", append=True) as tracer:
        span = derive_span_id(
            root.trace_id, f"{root.span_id}/http-{tracer.next_span}"
        )
        tracer.event(
            "request",
            attrs={
                "outcome": "accepted",
                "status": status,
                "tenant": "default",
                "priority": 0,
            },
            ctx=TraceContext(
                trace_id=root.trace_id,
                span_id=span,
                parent_id=root.span_id,
            ),
        )


def write_attempt_shard(trace_dir, root, attempt=1, finish=True):
    """A worker-style shard: queue_wait anchor + nested run span."""
    ctx = root.child(f"attempt-{attempt}")
    path = trace_dir / f"job-{root.trace_id}-a{attempt}.jsonl"
    tracer = Tracer(path, context=ctx)
    tracer.event(
        "queue_wait",
        attrs={"attempt": attempt, "priority": 0, "tenant": "default"},
        dur=0.01,
        ctx=ctx,
    )
    tracer.begin(
        "service_run_start", attrs={"attempt": attempt, "job_id": "j-1"}
    )
    tracer.begin("run_start", attrs={"algorithm": "emts5"})
    tracer.event("generation", attrs={"generation": 1, "best": 3.0})
    tracer.event("verify", attrs={"verified": 8, "service": True})
    if finish:
        tracer.end("run_end", attrs={"makespan": 3.0, "engine": "c"})
        tracer.end(
            "service_run_end", attrs={"state": "done", "warm_hit": True}
        )
    tracer.close()
    return path


class TestAssembly:
    def test_round_trip_tree_shape(self, tmp_path):
        root = request_root()
        write_server_shard(tmp_path, root)
        write_attempt_shard(tmp_path, root)
        (tree,) = assemble_traces(tmp_path)
        assert tree.trace_id == root.trace_id
        assert tree.crashed is False
        # synthetic root anchors the client-minted request span
        assert tree.root.synthetic is True
        kinds = [c.kind for c in tree.root.children]
        assert kinds == ["request", "queue_wait"]  # server shard first
        (queue_wait,) = [
            c for c in tree.root.children if c.kind == "queue_wait"
        ]
        (service_run,) = queue_wait.children
        assert service_run.kind == "service_run_start"
        assert service_run.complete is True
        assert service_run.end_attrs["state"] == "done"
        (run,) = service_run.children
        assert run.kind == "run_start"
        assert run.end_attrs["makespan"] == 3.0
        assert [c.kind for c in run.children] == [
            "generation",
            "verify",
        ]

    def test_same_inputs_bit_identical_canonical_trees(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            root = request_root()
            write_server_shard(d, root)
            write_attempt_shard(d, root)
        (ta,) = assemble_traces(tmp_path / "a")
        (tb,) = assemble_traces(tmp_path / "b")
        assert json.dumps(
            canonical_tree(ta), sort_keys=True
        ) == json.dumps(canonical_tree(tb), sort_keys=True)

    def test_canonical_tree_strips_volatile_attrs(self, tmp_path):
        root = request_root()
        write_attempt_shard(tmp_path, root)
        (tree,) = assemble_traces(tmp_path)
        doc = json.dumps(canonical_tree(tree))
        assert "job_id" not in doc
        assert "engine" not in doc
        assert '"t"' not in doc and '"dur"' not in doc

    def test_two_requests_two_trees(self, tmp_path):
        for tag in ("one", "two"):
            root = request_root(tag)
            write_server_shard(tmp_path, root)
            write_attempt_shard(tmp_path, root)
        trees = assemble_traces(tmp_path)
        assert len(trees) == 2
        assert trees[0].trace_id != trees[1].trace_id

    def test_context_free_events_stay_out_of_trees(self, tmp_path):
        root = request_root()
        write_attempt_shard(tmp_path, root)
        with Tracer(tmp_path / "server.jsonl", append=True) as tracer:
            tracer.event("drain", attrs={"queued": 0, "running": 0})
        (tree,) = assemble_traces(tmp_path)
        assert all(
            n.kind != "drain" for n in tree.root.walk()
        )


class TestLocalTrees:
    def test_file_loads_as_one_local_tree(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Tracer(path) as tracer:
            tracer.begin("run_start", attrs={"algorithm": "emts5"})
            tracer.event("phase", attrs={"name": "seeding"}, dur=0.5)
            tracer.event("generation", attrs={"generation": 0})
            tracer.end("run_end", attrs={"makespan": 3.0})
        (tree,) = load_trace(path)
        assert tree.trace_id is None and tree.events == 4
        (run,) = tree.root.children
        assert run.kind == "run_start" and run.complete
        assert run.end_attrs == {"makespan": 3.0}
        assert [c.kind for c in run.children] == ["phase", "generation"]

    def test_directory_keeps_context_free_events_in_local_trees(
        self, tmp_path
    ):
        root = request_root()
        write_attempt_shard(tmp_path, root)
        with Tracer(tmp_path / "server.jsonl", append=True) as tracer:
            tracer.event("drain", attrs={"queued": 0, "running": 0})
        request_tree, server_tree = load_trace(tmp_path)
        assert request_tree.trace_id == root.trace_id
        assert server_tree.trace_id is None
        assert [n.kind for n in server_tree.root.children] == ["drain"]

    def test_service_report_digests_each_run(self, tmp_path):
        root = request_root()
        write_server_shard(tmp_path, root)
        write_attempt_shard(tmp_path, root)
        text = render_trace_report(tmp_path)
        assert f"trace {root.trace_id}" in text
        assert "run       : emts5" in text
        assert "result    : makespan 3 s" in text


class TestCrashTolerance:
    def test_torn_shard_yields_partial_flagged_tree(self, tmp_path):
        root = request_root()
        write_server_shard(tmp_path, root)
        path = write_attempt_shard(tmp_path, root, finish=False)
        # tear the final line mid-write, like a kill -9 would
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        (tree,) = assemble_traces(tmp_path)
        assert tree.crashed is True
        assert tree.truncated_shards == (path.stem,)
        open_kinds = {
            n.kind for n in tree.root.walk() if not n.complete
        }
        assert "service_run_start" in open_kinds

    def test_unclosed_span_flags_crash_without_truncation(
        self, tmp_path
    ):
        root = request_root()
        write_attempt_shard(tmp_path, root, finish=False)
        (tree,) = assemble_traces(tmp_path)
        assert tree.crashed is True
        assert tree.truncated_shards == ()

    def test_strict_mode_refuses_crash_damage(self, tmp_path):
        root = request_root()
        write_attempt_shard(tmp_path, root, finish=False)
        with pytest.raises(TraceError, match="never.*closed"):
            assemble_traces(tmp_path, strict=True)


class TestStructuralBreaks:
    def test_duplicate_span_ids_raise(self, tmp_path):
        root = request_root()
        # two shards claiming the same attempt context collide
        write_attempt_shard(tmp_path, root, attempt=1)
        clone = tmp_path / "job-clone-a1.jsonl"
        clone.write_text(
            (tmp_path / f"job-{root.trace_id}-a1.jsonl").read_text()
        )
        with pytest.raises(TraceError, match="duplicate span id"):
            assemble_traces(tmp_path)

    def test_multiple_anchors_without_tear_raise(self, tmp_path):
        root = request_root()
        write_server_shard(tmp_path, root)
        # an attempt parented under a context the request never minted
        stray = TraceContext(
            trace_id=root.trace_id,
            span_id=derive_span_id(root.trace_id, "not-the-request"),
        )
        write_attempt_shard(tmp_path, stray)
        with pytest.raises(TraceError, match="structurally broken"):
            assemble_traces(tmp_path)

    def test_parent_cycle_raises(self, tmp_path):
        path = tmp_path / "cycle.jsonl"
        path.write_text(
            "".join(
                json.dumps(
                    {"v": 3, "kind": "run_start", "span": span,
                     "parent": parent, "t": 0.0}
                )
                + "\n"
                for span, parent in ((1, 2), (2, 1))
            )
        )
        with pytest.raises(TraceError, match="cycle"):
            load_trace(path)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(TraceError, match="no .*shards"):
            assemble_traces(tmp_path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            assemble_traces(tmp_path / "nonsuch")

    def test_shards_without_context_raise(self, tmp_path):
        with Tracer(tmp_path / "plain.jsonl") as tracer:
            tracer.begin("run_start", attrs={})
            tracer.end("run_end", attrs={})
        with pytest.raises(TraceError, match="nothing to assemble"):
            assemble_traces(tmp_path)


class TestWaterfall:
    def test_report_renders_every_phase(self, tmp_path):
        root = request_root()
        write_server_shard(tmp_path, root)
        write_attempt_shard(tmp_path, root)
        text = render_trace_report(tmp_path)
        assert f"trace {root.trace_id}" in text
        assert "request:  accepted status=202" in text
        assert "queue wait" in text
        assert "run attempt" in text
        assert "emts run" in text
        assert "verify" in text
        assert "1 generations" in text

    def test_report_flags_crashes(self, tmp_path):
        root = request_root()
        path = write_attempt_shard(tmp_path, root, finish=False)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        text = render_trace_report(tmp_path)
        assert "CRASHED — partial tree" in text
        assert "[UNCLOSED — crash?]" in text
