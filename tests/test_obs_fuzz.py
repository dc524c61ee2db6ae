"""Hostile traces: the reader and renderer raise only ``TraceError``.

Random bytes, and schema-valid events of every kind with random JSON
attrs, go through :func:`read_trace`, :func:`read_trace_prefix`,
:func:`load_trace` and :func:`render_trace_report`; each call either
succeeds or raises :class:`~repro.exceptions.TraceError`, and
``report-trace`` exits with ``trace error:`` rather than a traceback.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exceptions import TraceError
from repro.obs import (
    EVENT_KINDS,
    TRACE_VERSION,
    TraceContext,
    Tracer,
    derive_span_id,
    derive_trace_id,
    load_trace,
    read_trace,
    read_trace_prefix,
    render_trace_report,
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Attr keys the renderer reads, so random values land where they hurt.
KEYS = (
    "algorithm", "attempt", "best", "budget_used", "cache_hits",
    "deadline", "elapsed_seconds", "engine", "eval_stats", "evaluations",
    "event", "faults_injected", "generation", "generations", "genomes",
    "interrupted", "makespan", "makespans", "name", "outcome",
    "overhead_seconds", "phase_seconds", "planned_makespan", "priority",
    "problem", "processors", "resumed", "retries", "served_from",
    "state", "status", "tasks", "tenant", "verified", "warm_hit",
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=3
    ),
    max_leaves=8,
)
attrs = st.dictionaries(
    st.sampled_from(KEYS) | st.text(max_size=4), json_values, max_size=6
)


def check(call, *args):
    """``call(*args)`` succeeds or raises ``TraceError``, nothing else."""
    try:
        call(*args)
    except TraceError:
        pass


def check_cli(path):
    try:
        assert main(["report-trace", str(path)]) == 0
    except SystemExit as exc:
        assert str(exc).startswith("trace error:"), exc


@FUZZ
@given(data=st.binary(max_size=300))
def test_random_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_bytes(data)
        for call in (read_trace, read_trace_prefix, load_trace):
            check(call, path)
        check(render_trace_report, path)
        check(render_trace_report, Path(tmp))  # as a shard directory
        check_cli(path)


@st.composite
def event_soup(draw):
    """Schema-valid events of every kind, nested at random."""
    events = []
    for span in range(1, draw(st.integers(1, 12)) + 1):
        event = {
            "v": TRACE_VERSION,
            "kind": draw(st.sampled_from(EVENT_KINDS)),
            "span": span,
            "parent": draw(st.none() | st.integers(1, span + 2)),
            "t": draw(st.floats(0, 1e3)),
            "attrs": draw(attrs),
        }
        if draw(st.booleans()):
            event["dur"] = draw(st.floats(0, 1e3))
        events.append(event)
    return events


@FUZZ
@given(events=event_soup())
def test_schema_valid_soup(events):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        check(load_trace, path)
        check(render_trace_report, path)


def write_skeleton(tracer, a):
    """Every kind, correctly nested, each with random attrs ``a``."""
    tracer.event("request", attrs=next(a))
    tracer.event("queue_wait", attrs=next(a), dur=0.1)
    tracer.begin("service_run_start", attrs=next(a))
    tracer.begin("run_start", attrs=next(a))
    tracer.event("phase", attrs=next(a), dur=0.01)
    tracer.event("evaluation", attrs=next(a), dur=0.01)
    tracer.event("seed", attrs=next(a))
    tracer.event("evaluation", attrs=next(a), dur=0.01)
    tracer.event("generation", attrs=next(a))
    tracer.event("generation", attrs=next(a))
    tracer.event("checkpoint", attrs=next(a), dur=0.01)
    tracer.event("verify", attrs=next(a))
    tracer.end("run_end", attrs=next(a))
    tracer.end("service_run_end", attrs=next(a))
    tracer.begin("campaign_start", attrs=next(a))
    tracer.event("campaign_trial", attrs=next(a))
    tracer.end("campaign_end", attrs=next(a))
    tracer.event("online_start", attrs=next(a))
    tracer.event("fault", attrs=next(a))
    tracer.event("reschedule", attrs=next(a))
    tracer.event("online_end", attrs=next(a))
    tracer.event("drain", attrs=next(a))


@FUZZ
@given(
    payloads=st.lists(attrs, min_size=22, max_size=22), ctx=st.booleans()
)
def test_well_nested_random_attrs(payloads, ctx):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        context = None
        if ctx:  # a service shard: its tree renders as a waterfall
            trace_id = derive_trace_id("fuzz")
            context = TraceContext(
                trace_id=trace_id,
                span_id=derive_span_id(trace_id, "attempt"),
            )
        with Tracer(path, context=context) as tracer:
            write_skeleton(tracer, iter(payloads))
        check(render_trace_report, path)
        check(render_trace_report, Path(tmp))
        check_cli(path)


# ----------------------------------------------------------------------
def probe_trace(tmp_path, kind, attrs_, ctx=False):
    """A well-formed run trace whose ``kind`` event carries ``attrs_``."""
    path = tmp_path / "t.jsonl"
    context = None
    if ctx:
        trace_id = derive_trace_id("probe")
        context = TraceContext(
            trace_id=trace_id, span_id=derive_span_id(trace_id, "a")
        )
    with Tracer(path, context=context) as tracer:
        if kind.startswith("online"):
            tracer.event(
                "online_start",
                attrs=attrs_ if kind == "online_start" else {},
            )
            tracer.event("online_end", attrs={"outcome": "completed"})
            return path
        tracer.begin(
            "run_start", attrs=attrs_ if kind == "run_start" else {}
        )
        tracer.event(
            "generation",
            attrs=attrs_ if kind == "generation" else {"best": 1.0},
        )
        tracer.end("run_end", attrs=attrs_ if kind == "run_end" else {})
    return path


@pytest.mark.parametrize(
    "kind, attrs_, ctx",
    [
        ("run_start", {"problem": "x"}, False),
        ("run_end", {"eval_stats": [1]}, False),
        ("generation", {"best": "x"}, False),
        ("run_end", {"makespan": "x"}, False),
        ("online_start", {"deadline": "x"}, False),
        ("run_end", {"makespan": "x"}, True),
    ],
)
def test_mistyped_attrs_are_trace_errors(tmp_path, kind, attrs_, ctx):
    path = probe_trace(tmp_path, kind, attrs_, ctx)
    target = tmp_path if ctx else path
    with pytest.raises(TraceError, match="cannot be rendered"):
        render_trace_report(target)
    with pytest.raises(SystemExit, match="^trace error:"):
        main(["report-trace", str(target)])


def test_undecodable_bytes_are_trace_errors(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"\xff\xfe\n")
    for call in (read_trace, read_trace_prefix, render_trace_report):
        with pytest.raises(TraceError, match="not UTF-8"):
            call(path)
    with pytest.raises(TraceError, match="not UTF-8"):
        render_trace_report(tmp_path)
    with pytest.raises(SystemExit, match="^trace error:.*not UTF-8"):
        main(["report-trace", str(path)])


@pytest.mark.parametrize("ctx", [False, True])
def test_deeply_nested_spans(tmp_path, ctx):
    context = None
    if ctx:
        trace_id = derive_trace_id("deep")
        context = TraceContext(
            trace_id=trace_id, span_id=derive_span_id(trace_id, "a")
        )
    with Tracer(tmp_path / "t.jsonl", context=context) as tracer:
        for _ in range(3000):
            tracer.begin("service_run_start")
    check(render_trace_report, tmp_path / "t.jsonl")
    check(render_trace_report, tmp_path)
