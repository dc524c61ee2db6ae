"""Trace loading: a trace file or a service trace directory → span trees.

This is the one reader of span structure.  A ``--trace`` file is one
shard; a daemon's ``--trace-dir`` holds many: ``server.jsonl``
(append-mode, survives restarts) carries the HTTP front-end's
``request``/``drain`` events, and one ``job-<trace>-a<n>`` shard per
worker execution attempt carries that attempt's ``queue_wait`` +
``service_run_start``..``service_run_end`` span with the EMTS run
events nested inside.  An event's id and parent come from its ``ctx``
mirror (:class:`~repro.obs.trace.TraceContext`-derived hex ids, one
*request tree* per trace id across shards) when it has one, else from
its shard's file-local ``span``/``parent`` (one *local tree* per
shard).  ``*_end`` events fold into the span they close.

Crash tolerance is the point for directories: a worker killed mid-span
leaves a truncated shard and an unclosed ``service_run_start``.  The
loader recovers the valid prefix, marks the span ``complete: false``
and the tree ``crashed``, and still renders — an exception would be
the postmortem eating itself.  A single trace file is read strictly
(:func:`~repro.obs.trace.read_trace`): the ``--trace`` writer closes
it cleanly, so a torn line there is corruption.  Genuinely malformed
nesting (an event whose parent no shard emitted and no truncation
explains, a run-internal event outside any span, an end event closing
nothing) raises :class:`~repro.exceptions.TraceError`, which
``report-trace`` turns into a non-zero exit.

Determinism: ids are derived, shard names are derived, and child
ordering uses (shard, file-local span) — all deterministic — so
:func:`canonical_tree` of two same-seed round trips is bit-identical
once timestamps and process-volatile attrs are stripped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..exceptions import TraceError
from .trace import (
    TraceEvent,
    read_trace,
    read_trace_prefix,
    strip_timestamps,
)

__all__ = [
    "SpanNode",
    "TraceTree",
    "assemble_traces",
    "canonical_tree",
    "load_trace",
]

#: Attr keys that vary per process/run without changing semantics:
#: uuid-based job ids, the compiled-vs-numpy engine choice, thread and
#: process identity, and the client's random idempotency key.  Stripped
#: by :func:`canonical_tree` alongside the timestamp keys.
VOLATILE_ATTRS = frozenset(
    {
        "job_id",
        "engine",
        "pid",
        "thread",
        "worker",
        "idempotency_key",
        "host",
    }
)

#: ``*_end`` kinds that close a span and fold into their ``*_start``.
_SPAN_END_TO_START = {
    "run_end": "run_start",
    "service_run_end": "service_run_start",
    "campaign_end": "campaign_start",
}

#: Kinds that only ever occur inside a span: one at the top of a tree
#: was orphaned by broken nesting.
_NESTED_KINDS = frozenset(
    {"seed", "phase", "generation", "evaluation", "checkpoint", "verify"}
)


@dataclass
class SpanNode:
    """One node of a span tree.

    ``*_start``/``*_end`` pairs fold into a single node: ``kind`` is
    the start kind, ``end_attrs``/``dur`` come from the matching end
    event, and ``complete`` says whether that end was ever written.
    Instantaneous events are nodes with ``complete=True`` and no
    children of their own (usually).
    """

    span_id: str
    kind: str
    shard: str
    local_span: int
    t: float | None = None
    dur: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    end_attrs: dict[str, Any] = field(default_factory=dict)
    complete: bool = True
    synthetic: bool = False
    children: list["SpanNode"] = field(default_factory=list)

    def sort_key(self) -> tuple[int, str, int]:
        # server shard first (the request precedes its execution),
        # then job shards in attempt order via their derived names;
        # within a shard, file-local emission order.
        rank = 0 if self.shard == "server" else 1
        return (rank, self.shard, self.local_span)

    def walk(self) -> Iterator["SpanNode"]:
        """This node and its descendants, depth first, in order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class TraceTree:
    """The span tree of one trace id, or of one shard's local events.

    ``trace_id`` is ``None`` for a local tree: the events of one shard
    that carry no ``ctx`` (a ``--trace`` file, the server's ``drain``
    events).  ``events`` counts the trace lines folded into the tree.
    """

    trace_id: str | None
    root: SpanNode
    shards: tuple[str, ...]
    truncated_shards: tuple[str, ...]
    events: int = 0

    @property
    def crashed(self) -> bool:
        """True when a writer died mid-trace (torn shard or open span)."""
        if self.truncated_shards:
            return True
        return any(not node.complete for node in self.root.walk())


def _read_shards(
    path: Path,
) -> tuple[list[tuple[str, TraceEvent]], dict[str, bool]]:
    """Events tagged with their shard stem, plus per-shard tear flags."""
    if not path.exists():
        raise TraceError(f"cannot read trace {path}: it does not exist")
    if path.is_file():
        return [(path.stem, e) for e in read_trace(path)], {}
    files = sorted(path.glob("*.jsonl"))
    if not files:
        raise TraceError(
            f"trace directory {path} contains no *.jsonl shards"
        )
    tagged: list[tuple[str, TraceEvent]] = []
    truncated: dict[str, bool] = {}
    for shard in files:
        events, torn = read_trace_prefix(shard)
        truncated[shard.stem] = torn
        tagged.extend((shard.stem, event) for event in events)
    return tagged, truncated


def load_trace(
    path: str | Path, strict: bool = False
) -> list[TraceTree]:
    """Every span tree of a trace file or a service trace directory.

    Request trees (one per ``ctx`` trace id, sorted by id) come first,
    then one local tree per shard that holds context-free events.
    ``strict=True`` refuses crash damage too (truncated shards, spans
    left open); the default forgives it and flags it, raising only on
    structural breaks no crash can explain.
    """
    tagged, truncated = _read_shards(Path(path))
    groups: dict[tuple[int, str], list[tuple[str, TraceEvent]]] = {}
    for shard, event in tagged:
        ctx = event.ctx
        key = (0, ctx["trace"]) if ctx else (1, shard)
        groups.setdefault(key, []).append((shard, event))
    return [
        _assemble_one(
            name if local == 0 else None, events, truncated, strict
        )
        for (local, name), events in sorted(groups.items())
    ]


def assemble_traces(
    path: str | Path, strict: bool = False
) -> list[TraceTree]:
    """The request trees of a service trace directory (or shard)."""
    trees = [t for t in load_trace(path, strict) if t.trace_id]
    if not trees:
        raise TraceError(
            f"no context-carrying events in {path}: nothing to "
            "assemble (was the daemon started with --trace-dir?)"
        )
    return trees


def _ids(
    shard: str, event: TraceEvent
) -> tuple[str, str | None]:
    """``(id, parent id)`` of one event: ``ctx`` first, else local."""
    if event.ctx:
        return event.ctx["span"], event.ctx.get("parent")
    parent = None if event.parent is None else f"{shard}#{event.parent}"
    return f"{shard}#{event.span}", parent


def _assemble_one(
    trace_id: str | None,
    tagged: list[tuple[str, TraceEvent]],
    truncated: Mapping[str, bool],
    strict: bool,
) -> TraceTree:
    label = f"trace {trace_id}" if trace_id else f"shard {tagged[0][0]}"
    shards = tuple(sorted({shard for shard, _ in tagged}))
    torn = tuple(s for s in shards if truncated.get(s))
    if strict and torn:
        raise TraceError(
            f"{label}: shard(s) {', '.join(torn)} are truncated "
            "(crash-torn tail); re-run without strict mode to "
            "assemble the partial tree"
        )

    nodes: dict[str, SpanNode] = {}
    parent_of: dict[str, str | None] = {}
    pending_end: list[tuple[str, TraceEvent]] = []
    for shard, event in tagged:
        if event.kind in _SPAN_END_TO_START:
            pending_end.append((shard, event))
            continue
        span_id, parent_id = _ids(shard, event)
        if span_id in nodes:
            raise TraceError(
                f"{label}: duplicate span id {span_id} "
                f"({nodes[span_id].kind} in shard "
                f"{nodes[span_id].shard} vs {event.kind} in shard "
                f"{shard}) — shards overlap or ids collide"
            )
        parent_of[span_id] = parent_id
        nodes[span_id] = SpanNode(
            span_id=span_id,
            kind=event.kind,
            shard=shard,
            local_span=event.span,
            t=event.t,
            attrs=dict(event.attrs),
            complete=event.kind not in _SPAN_END_TO_START.values(),
            dur=event.dur,
        )

    # fold ``*_end`` events into the span they close
    for shard, event in pending_end:
        _, closes = _ids(shard, event)
        opener = nodes.get(closes or "")
        expected = _SPAN_END_TO_START[event.kind]
        if opener is None or opener.kind != expected or opener.complete:
            raise TraceError(
                f"{label}: {event.kind} in shard {shard} closes span "
                f"{closes!r}, but no open {expected} matches — span "
                "nesting is structurally broken"
            )
        opener.end_attrs = dict(event.attrs)
        opener.dur = event.dur
        opener.complete = True

    # link children; parents outside the emitted set are "anchors".  A
    # local tree has one, the top level (None).  A request tree has one
    # too: the client-minted request root, which lives only as a
    # derived id.  More anchors are wounds where truncation ate the
    # opener, or broken nesting.
    anchors: dict[str | None, list[SpanNode]] = {}
    for node in nodes.values():
        parent_id = parent_of[node.span_id]
        if parent_id is not None and parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            anchors.setdefault(parent_id, []).append(node)
    unexplained = len(anchors) > 1 or (
        trace_id is None and set(anchors) - {None}
    )
    if unexplained and not torn:
        detail = ", ".join(
            f"{pid or '<none>'} ({len(kids)} events)"
            for pid, kids in sorted(
                anchors.items(), key=lambda kv: kv[0] or ""
            )
        )
        raise TraceError(
            f"{label}: events parent under unknown spans [{detail}] "
            "with no truncated shard to explain it — span nesting is "
            "structurally broken"
        )

    root_id = min((a or "" for a in anchors), default="")
    root = SpanNode(
        span_id=root_id or trace_id or "",
        kind="request_root" if trace_id else "trace_root",
        shard="",
        local_span=0,
        synthetic=True,
    )
    for _, orphans in sorted(anchors.items(), key=lambda kv: kv[0] or ""):
        root.children.extend(orphans)
    if not torn:
        for node in root.children:
            if node.kind in _NESTED_KINDS:
                raise TraceError(
                    f"{label}: {node.kind} event (span "
                    f"{node.local_span} in shard {node.shard}) is not "
                    "inside any span — span nesting is structurally "
                    "broken"
                )
    # a parent cycle hangs off no anchor, so the walk never meets it
    reached = sum(1 for _ in root.walk()) - 1
    if reached != len(nodes):
        raise TraceError(
            f"{label}: {len(nodes) - reached} events parent in a cycle "
            "— span nesting is structurally broken"
        )
    for node in nodes.values():
        node.children.sort(key=SpanNode.sort_key)
    root.children.sort(key=SpanNode.sort_key)

    tree = TraceTree(
        trace_id=trace_id,
        root=root,
        shards=shards,
        truncated_shards=torn,
        events=len(tagged),
    )
    if strict and tree.crashed:
        open_spans = [
            n.kind for n in root.walk() if not n.complete
        ]
        raise TraceError(
            f"{label}: span(s) {', '.join(open_spans)} never closed "
            "(writer died mid-span); re-run without strict mode to "
            "assemble the partial tree"
        )
    return tree


# ----------------------------------------------------------------------
def _canonical_attrs(attrs: Mapping[str, Any]) -> dict[str, Any]:
    stripped = strip_timestamps({"attrs": dict(attrs)}).get("attrs", {})
    return {
        k: v for k, v in stripped.items() if k not in VOLATILE_ATTRS
    }


def _canonical_node(node: SpanNode) -> dict[str, Any]:
    out: dict[str, Any] = {
        "kind": node.kind,
        "complete": node.complete,
    }
    attrs = _canonical_attrs(node.attrs)
    if attrs:
        out["attrs"] = attrs
    end_attrs = _canonical_attrs(node.end_attrs)
    if end_attrs:
        out["end_attrs"] = end_attrs
    if node.children:
        out["children"] = [
            _canonical_node(child) for child in node.children
        ]
    return out


def canonical_tree(tree: TraceTree) -> dict[str, Any]:
    """The tree's deterministic skeleton, for cross-run comparison.

    Drops timestamps (the :func:`~repro.obs.trace.strip_timestamps`
    contract), span ids (redundant with structure), and
    :data:`VOLATILE_ATTRS`; keeps the trace id, which is itself
    derived and must reproduce.  Two same-seed ``serve → submit``
    round trips yield identical canonical trees.
    """
    return {
        "trace_id": tree.trace_id,
        "crashed": tree.crashed,
        "spans": [
            _canonical_node(child) for child in tree.root.children
        ],
    }
