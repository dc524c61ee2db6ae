"""Structured run tracing: a schema-versioned JSONL event stream.

One trace file holds the chronological event stream of one (or more)
observed runs: ``run_start`` .. ``run_end`` spans with ``phase``,
``generation``, ``evaluation``, ``checkpoint`` and ``verify`` events in
between, or a campaign's ``campaign_start``/``campaign_trial``/
``campaign_end`` sequence.  Every line is one JSON object — the documented
:class:`TraceEvent` schema (``docs/TRACE_SCHEMA.md``):

``v``
    Schema version (currently 3; versions 1 and 2 remain readable).
``kind``
    Event kind, one of :data:`EVENT_KINDS`.
``span``
    Sequential event/span id, unique within the trace (starts at 1).
``parent``
    Span id of the enclosing span (``null`` at top level).  An
    ``*_end`` event's parent is the span of its matching ``*_start``.
``t``
    Monotonic seconds since the tracer was created
    (:func:`time.perf_counter` based — comparable within a trace,
    meaningless across traces).
``dur``
    Optional duration in seconds (span-closing and timed events).
``attrs``
    Kind-specific payload (problem fingerprint, generation statistics,
    phase name, ...).
``ctx``
    Version 2, optional: the distributed-trace mirror of ``span`` /
    ``parent`` — ``{"trace": <hex>, "span": <hex>, "parent": <hex|null>}``
    with globally unique ids derived from the request fingerprint (see
    :class:`TraceContext`).  ``span``/``parent`` stay file-local; ``ctx``
    lets :mod:`repro.obs.assemble` join shards written by different
    processes into one causal tree.

A timed region is an event with a ``dur``: :func:`phase` times one
block of a run as a ``phase`` event and does nothing without a tracer.

Determinism contract: for a fixed seed and configuration the event
*sequence* — kinds, span ids, parents, and every ``attrs`` entry except
wall-clock quantities — is bit-identical across runs.  All wall-clock
quantities live in ``t``, ``dur``, or attr keys ending in ``_seconds``
or ``_per_sec``, which :func:`strip_timestamps` removes; the stripped
sequences of two same-seed runs compare equal.

Each event line is flushed on write, so a crash leaves a readable
prefix of complete events (the same crash-only stance as the
checkpoint files written alongside).  :func:`read_trace` mirrors the
checkpoint loader's error discipline: truncated or corrupt files raise
:class:`~repro.exceptions.TraceError` naming the file and line.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..exceptions import TraceError

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "SUPPORTED_TRACE_VERSIONS",
    "EVENT_KINDS",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "current_context",
    "derive_span_id",
    "derive_trace_id",
    "read_trace",
    "read_trace_prefix",
    "phase",
    "use_context",
    "validate_event",
    "strip_timestamps",
    "canonical_events",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 3
#: Versions :func:`validate_event` accepts.  Version 2 added the
#: optional ``ctx`` distributed-trace mirror and the ``request`` /
#: ``queue_wait`` / ``service_run_*`` / ``drain`` kinds; version 3 the
#: ``phase`` kind and ``checkpoint.dur`` in place of
#: ``run_end.attrs.phase_seconds``.  Older files stay readable.
SUPPORTED_TRACE_VERSIONS = (1, 2, 3)

#: Every kind a version-3 trace may contain.  ``phase`` is one timed
#: region of an EMTS run (``attrs.name``, ``dur``).  The ``online_*``,
#: ``fault`` and ``reschedule`` kinds are emitted by the reactive
#: execution runtime (:mod:`repro.online`): an ``online_start`` ..
#: ``online_end`` span with one ``fault`` event per injected/observed
#: fault and one ``reschedule`` event per frontier re-optimization.
#: The ``request``, ``queue_wait``, ``service_run_start``/
#: ``service_run_end`` and ``drain`` kinds are emitted by the serving
#: stack (:mod:`repro.service`): one ``request`` per HTTP submission
#: outcome, one ``queue_wait`` + ``service_run_*`` span per worker
#: execution attempt, one ``drain`` per shutdown.
EVENT_KINDS = (
    "run_start",
    "run_end",
    "phase",
    "seed",
    "generation",
    "evaluation",
    "checkpoint",
    "verify",
    "campaign_start",
    "campaign_trial",
    "campaign_end",
    "online_start",
    "online_end",
    "fault",
    "reschedule",
    "request",
    "queue_wait",
    "service_run_start",
    "service_run_end",
    "drain",
)

# ----------------------------------------------------------------------
_TRACE_ID_BYTES = 16  # 32 hex chars
_SPAN_ID_BYTES = 8    # 16 hex chars


def derive_trace_id(*parts: str) -> str:
    """A deterministic 32-hex-char trace id from string parts.

    Same-seed requests hash the same canonical fingerprint, so their
    trace ids — and every span id derived below them — are bit-identical
    across runs.  That is what lets the golden-trace CI check diff an
    assembled tree against a committed fixture.
    """
    digest = hashlib.sha256(
        ("repro-trace\x00" + "\x00".join(parts)).encode("utf-8")
    )
    return digest.hexdigest()[: _TRACE_ID_BYTES * 2]


def derive_span_id(trace_id: str, name: str) -> str:
    """A deterministic 16-hex-char span id scoped to one trace."""
    digest = hashlib.sha256(
        (trace_id + "\x00" + name).encode("utf-8")
    )
    return digest.hexdigest()[: _SPAN_ID_BYTES * 2]


@dataclass(frozen=True)
class TraceContext:
    """One node of a distributed trace: where new spans should parent.

    ``trace_id`` names the whole request journey; ``span_id`` the span
    this context represents; ``parent_id`` its parent (``None`` at the
    root).  Ids are *derived*, not random — see :func:`derive_trace_id`
    — so the same request produces the same context every run.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child(self, name: str) -> "TraceContext":
        """A context for a deterministic child span named ``name``."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_span_id(
                self.trace_id, f"{self.span_id}/{name}"
            ),
            parent_id=self.span_id,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(data["trace"]),
            span_id=str(data["span"]),
            parent_id=(
                None if data.get("parent") is None
                else str(data["parent"])
            ),
        )


#: The active request/run context, if any.  ``contextvars`` gives each
#: worker thread (and each asyncio task) its own slot, so concurrent
#: jobs never see each other's ids.  The JSON log formatter reads this
#: to stamp ``trace_id`` onto log records.
_CURRENT_CONTEXT: contextvars.ContextVar[TraceContext | None] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_context() -> TraceContext | None:
    """The :class:`TraceContext` active on this thread/task, if any."""
    return _CURRENT_CONTEXT.get()


@contextmanager
def use_context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Activate ``ctx`` as :func:`current_context` for the block."""
    token = _CURRENT_CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT_CONTEXT.reset(token)


@dataclass(frozen=True)
class TraceEvent:
    """One parsed trace line (see the module docstring for the schema)."""

    kind: str
    span: int
    t: float
    parent: int | None = None
    dur: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    ctx: dict[str, Any] | None = None
    v: int = TRACE_VERSION

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "v": self.v,
            "kind": self.kind,
            "span": self.span,
            "parent": self.parent,
            "t": self.t,
        }
        if self.dur is not None:
            data["dur"] = self.dur
        if self.attrs:
            data["attrs"] = self.attrs
        if self.ctx is not None:
            data["ctx"] = self.ctx
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        ctx = data.get("ctx")
        return cls(
            kind=data["kind"],
            span=int(data["span"]),
            t=float(data["t"]),
            parent=(
                None if data.get("parent") is None else int(data["parent"])
            ),
            dur=(
                None if data.get("dur") is None else float(data["dur"])
            ),
            attrs=dict(data.get("attrs", {})),
            ctx=None if ctx is None else dict(ctx),
            v=int(data["v"]),
        )


class Tracer:
    """Appends schema-versioned events to a JSONL trace file.

    Span ids are assigned sequentially in emission order, so they are a
    deterministic function of the event sequence — only the ``t``/``dur``
    timestamps vary between same-seed runs.  Events nest through an
    explicit span stack: :meth:`begin` pushes, :meth:`end` pops, and
    :meth:`event` records an instantaneous event under the innermost
    open span.

    With a ``context`` every event also carries the ``ctx`` mirror:
    the file-local integer ids are translated into globally unique,
    deterministic hex ids under the context's span, so a multi-process
    assembler can join this shard into the request's causal tree.
    ``append=True`` opens the file in append mode (per-process shards
    that must survive a daemon restart, e.g. the server shard).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        context: TraceContext | None = None,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        self.context = context
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        next_span = 1
        if append:
            next_span = self._seal_existing(self.path)
        try:
            self._file = open(
                self.path, "a" if append else "w", encoding="utf-8"
            )
        except OSError as exc:
            raise TraceError(
                f"cannot open trace file {self.path}: {exc}"
            ) from exc
        self._t0 = time.perf_counter()
        self._next_span = next_span
        # (span id, kind, start time) of every open span, outermost first
        self._stack: list[tuple[int, str, float]] = []

    @staticmethod
    def _seal_existing(path: Path) -> int:
        """Prepare an existing shard for appending across restarts.

        A previous process may have died mid-write, leaving a torn
        final line; appending after it would weld two events into one
        corrupt line, so the tear is truncated away (it was never a
        complete event — the same unacked-state stance as quarantining
        an orphaned spool temp file).  Returns the next free span id,
        one past the largest already in the file, so restart never
        reuses ids within the shard.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return 1
        if raw and not raw.endswith(b"\n"):
            cut = raw.rfind(b"\n") + 1
            raw = raw[:cut]
            try:
                path.write_bytes(raw)
            except OSError as exc:
                raise TraceError(
                    f"cannot seal torn trace file {path}: {exc}"
                ) from exc
        next_span = 1
        for line in raw.decode("utf-8", "replace").splitlines():
            try:
                data = json.loads(line)
            except ValueError:
                continue
            span = data.get("span")
            if isinstance(span, int) and span >= next_span:
                next_span = span + 1
        return next_span

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _ctx_span(self, span: int) -> str:
        """The deterministic hex mirror of a file-local span id."""
        ctx = self.context
        return derive_span_id(ctx.trace_id, f"{ctx.span_id}#e{span}")

    def _write(
        self,
        kind: str,
        span: int,
        parent: int | None,
        t: float,
        dur: float | None,
        attrs: Mapping[str, Any] | None,
        ctx: Mapping[str, Any] | None = None,
    ) -> None:
        if self._file is None:
            raise TraceError(
                f"trace file {self.path} is already closed"
            )
        if kind not in EVENT_KINDS:
            raise TraceError(
                f"unknown trace event kind {kind!r}; known kinds: "
                f"{', '.join(EVENT_KINDS)}"
            )
        data: dict[str, Any] = {
            "v": TRACE_VERSION,
            "kind": kind,
            "span": span,
            "parent": parent,
            "t": round(t, 6),
        }
        if dur is not None:
            data["dur"] = round(dur, 6)
        if attrs:
            data["attrs"] = dict(attrs)
        if ctx is not None:
            data["ctx"] = dict(ctx)
        elif self.context is not None:
            data["ctx"] = {
                "trace": self.context.trace_id,
                "span": self._ctx_span(span),
                "parent": (
                    self.context.span_id
                    if parent is None
                    else self._ctx_span(parent)
                ),
            }
        try:
            self._file.write(
                json.dumps(data, sort_keys=True, default=_jsonable)
                + "\n"
            )
            self._file.flush()
        except (OSError, TypeError, ValueError) as exc:
            raise TraceError(
                f"cannot write {kind!r} event to {self.path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def event(
        self,
        kind: str,
        attrs: Mapping[str, Any] | None = None,
        dur: float | None = None,
        ctx: TraceContext | None = None,
    ) -> int:
        """Record an instantaneous event; returns its span id.

        ``ctx`` overrides the tracer-wide context for this one event —
        the server shard uses this to stamp each ``request`` event with
        that request's own trace id.
        """
        span = self._next_span
        self._next_span += 1
        parent = self._stack[-1][0] if self._stack else None
        self._write(
            kind,
            span,
            parent,
            self._now(),
            dur,
            attrs,
            ctx=None if ctx is None else ctx.to_dict(),
        )
        return span

    def begin(
        self, kind: str, attrs: Mapping[str, Any] | None = None
    ) -> int:
        """Open a span: emit its ``*_start`` event and push it.

        ``kind`` is the start event's kind (``"run_start"``,
        ``"campaign_start"``); subsequent events nest under the new span
        until the matching :meth:`end`.
        """
        span = self._next_span
        self._next_span += 1
        parent = self._stack[-1][0] if self._stack else None
        t = self._now()
        self._write(kind, span, parent, t, None, attrs)
        self._stack.append((span, kind, t))
        return span

    def end(
        self, kind: str, attrs: Mapping[str, Any] | None = None
    ) -> int:
        """Close the innermost span with a ``kind`` event.

        The closing event's ``parent`` is the span it closes and its
        ``dur`` the span's wall-clock extent.
        """
        if not self._stack:
            raise TraceError(
                f"cannot emit {kind!r}: no open span in {self.path}"
            )
        opened_span, _, opened_t = self._stack.pop()
        span = self._next_span
        self._next_span += 1
        t = self._now()
        self._write(kind, span, opened_span, t, t - opened_t, attrs)
        return span

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """How many spans are currently open (stack depth)."""
        return len(self._stack)

    @property
    def next_span(self) -> int:
        """The file-local id the next emitted event will receive.

        Restart-unique in append mode (see :meth:`_seal_existing`), so
        deriving an explicit-ctx span id from it — as the server shard
        does for ``request`` events — never collides across daemon
        generations.
        """
        return self._next_span

    def close(self) -> None:
        """Flush and close the trace file (idempotent)."""
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return f"Tracer({str(self.path)!r}, {state})"


@contextmanager
def phase(tracer: Tracer | None, name: str) -> Iterator[None]:
    """Time the block as one ``phase`` event named ``name``.

    Without a tracer the block runs untimed: this is the whole cost of
    a phase on the disabled path.
    """
    if tracer is None:
        yield
        return
    t0 = time.perf_counter()
    yield
    tracer.event(
        "phase", attrs={"name": name}, dur=time.perf_counter() - t0
    )


def _jsonable(value):
    """Coerce numpy scalars (and other oddballs) to plain JSON types."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(
        f"trace attr of type {type(value).__name__} is not "
        "JSON-serializable"
    )


# ----------------------------------------------------------------------
_HEX_DIGITS = frozenset("0123456789abcdef")


def _is_hex_id(value: str) -> bool:
    """True for non-empty lowercase hex strings of sane length."""
    return (
        0 < len(value) <= 64
        and all(c in _HEX_DIGITS for c in value)
    )


def _non_negative(value: Any) -> bool:
    """True for a JSON number that is a float ``>= 0`` (not NaN)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return float(value) >= 0
    except OverflowError:  # an integer too large for a float
        return False


def validate_event(
    data: Any, line: int | None = None, path: str | Path | None = None
) -> None:
    """Check one decoded trace line against the trace schema.

    Accepts any version in :data:`SUPPORTED_TRACE_VERSIONS`.  Raises
    :class:`~repro.exceptions.TraceError` naming the offending
    file/line and field on any violation.
    """

    def bad(reason: str) -> TraceError:
        where = ""
        if path is not None:
            where += str(path)
        if line is not None:
            where += f", line {line}"
        prefix = f"invalid trace event ({where}): " if where else (
            "invalid trace event: "
        )
        return TraceError(prefix + reason)

    if not isinstance(data, dict):
        raise bad(f"expected a JSON object, got {type(data).__name__}")
    version = data.get("v")
    if version not in SUPPORTED_TRACE_VERSIONS or isinstance(
        version, bool
    ):
        supported = ", ".join(str(v) for v in SUPPORTED_TRACE_VERSIONS)
        raise bad(
            f"unsupported trace version {version!r} "
            f"(this reader understands versions {supported})"
        )
    kind = data.get("kind")
    if kind not in EVENT_KINDS:
        raise bad(
            f"unknown event kind {kind!r}; known kinds: "
            f"{', '.join(EVENT_KINDS)}"
        )
    span = data.get("span")
    if not isinstance(span, int) or isinstance(span, bool) or span < 1:
        raise bad(f"span must be a positive integer, got {span!r}")
    parent = data.get("parent")
    if parent is not None and (
        not isinstance(parent, int)
        or isinstance(parent, bool)
        or parent < 1
    ):
        raise bad(
            f"parent must be null or a positive integer, got {parent!r}"
        )
    t = data.get("t")
    if not _non_negative(t):
        raise bad(f"t must be a non-negative number, got {t!r}")
    dur = data.get("dur")
    if dur is not None and not _non_negative(dur):
        raise bad(
            f"dur must be absent or a non-negative number, got {dur!r}"
        )
    attrs = data.get("attrs")
    if attrs is not None and not isinstance(attrs, dict):
        raise bad(
            f"attrs must be a JSON object, got {type(attrs).__name__}"
        )
    ctx = data.get("ctx")
    if ctx is not None:
        if version < 2:
            raise bad("ctx requires trace version 2 or later")
        if not isinstance(ctx, dict):
            raise bad(
                f"ctx must be a JSON object, got {type(ctx).__name__}"
            )
        for key in ("trace", "span"):
            value = ctx.get(key)
            if not isinstance(value, str) or not _is_hex_id(value):
                raise bad(
                    f"ctx.{key} must be a lowercase hex id, "
                    f"got {value!r}"
                )
        parent_ctx = ctx.get("parent")
        if parent_ctx is not None and (
            not isinstance(parent_ctx, str)
            or not _is_hex_id(parent_ctx)
        ):
            raise bad(
                "ctx.parent must be null or a lowercase hex id, "
                f"got {parent_ctx!r}"
            )


def _parse(
    path: str | Path, tolerate_tear: bool
) -> tuple[list[TraceEvent], bool]:
    """Parse and validate every line; see the two readers below."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceError(
            f"cannot read trace file {path}: {exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise TraceError(
            f"trace file {path} is not UTF-8 text ({exc.reason} at "
            f"byte {exc.start})"
        ) from exc
    lines = text.split("\n")
    truncated = False
    # a complete trace ends with a newline: the final split element is
    # empty.  Anything else means the last write was torn mid-line.
    if lines[-1] == "":
        lines.pop()
    elif tolerate_tear:
        lines.pop()
        truncated = True
    else:
        raise TraceError(
            f"trace file {path} is truncated: line {len(lines)} ends "
            "without a newline (the writing process likely died "
            "mid-event)"
        )
    events: list[TraceEvent] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise TraceError(
                f"trace file {path}, line {lineno}: blank line in "
                "event stream (file corrupt?)"
            )
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            if tolerate_tear and lineno == len(lines):
                # a torn line that happened to end in "\n" content-wise
                truncated = True
                break
            raise TraceError(
                f"trace file {path}, line {lineno}: not valid JSON "
                f"({exc})"
            ) from exc
        validate_event(data, line=lineno, path=path)
        events.append(TraceEvent.from_dict(data))
    return events, truncated


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Parse and validate a JSONL trace file.

    Mirrors the checkpoint loader's contract: missing, undecodable,
    truncated or corrupt files raise
    :class:`~repro.exceptions.TraceError` with enough context (file,
    line number, reason) to act on.
    """
    events, _ = _parse(path, tolerate_tear=False)
    if not events:
        raise TraceError(f"trace file {path} contains no events")
    return events


def read_trace_prefix(
    path: str | Path,
) -> tuple[list[TraceEvent], bool]:
    """The valid leading prefix of a possibly crash-torn trace file.

    Where :func:`read_trace` refuses a truncated file outright, this
    reader returns ``(events, truncated)``: every complete, valid event
    before the first torn or corrupt line, plus a flag saying whether
    anything had to be dropped.  This is how the loader reads a service
    trace directory — a worker killed mid-span leaves a readable prefix,
    and the partial tree (crash flagged) is exactly what the postmortem
    needs.

    Structural violations *within* a complete line (bad schema, unknown
    kind) still raise: corruption is only forgiven at the torn tail.
    """
    return _parse(path, tolerate_tear=True)


# ----------------------------------------------------------------------
_TIMESTAMP_KEYS = ("t", "dur")
_TIMESTAMP_SUFFIXES = ("_seconds", "_per_sec")


def _strip_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            k: _strip_value(v)
            for k, v in value.items()
            if not any(k.endswith(s) for s in _TIMESTAMP_SUFFIXES)
        }
    if isinstance(value, list):
        return [_strip_value(v) for v in value]
    return value


def strip_timestamps(event: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of the event with every wall-clock quantity removed.

    Drops the top-level ``t``/``dur`` fields and, recursively, any
    attr whose key ends in ``_seconds`` or ``_per_sec``.  What remains
    is the deterministic part of the event: two same-seed runs produce
    identical stripped sequences.
    """
    out = {
        k: _strip_value(v)
        for k, v in event.items()
        if k not in _TIMESTAMP_KEYS
    }
    return out


def canonical_events(path: str | Path) -> list[dict[str, Any]]:
    """The trace's deterministic skeleton (for cross-run comparison)."""
    return [strip_timestamps(e.to_dict()) for e in read_trace(path)]
