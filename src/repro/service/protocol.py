"""Request/response protocol of the scheduling service.

One request = one scheduling problem: an inline ``repro-ptg`` document,
a platform preset, an execution-time model, an algorithm preset and a
seed, plus an optional budget (generations / wall-time) and queueing
metadata (tenant, priority).

Two identities are derived from a request:

* :func:`problem_digest` — hash of the *problem* only (PTG + platform +
  model).  Two requests with the same digest share a prepared time
  table and compiled kernel (the warm tier).
* :func:`result_key` — hash of everything that determines the *answer*
  (problem + algorithm + seed + budget).  Requests with the same key
  receive bit-identical responses from the cross-request result cache.

:func:`estimate_work` models what a request's run costs from its shape
alone (V, P, μ, λ and generations), and from that how often the run
journals a checkpoint.

Responses split into a deterministic ``result`` section (bit-identical
for equal result keys, whether computed cold, warm or served from
cache) and a ``stats`` envelope (timings, cache provenance) that is
allowed to differ between runs.

A request's PTG document is JSON-encoded once, at parse time
(:attr:`ScheduleRequest.ptg_json`).  Both identities hash canonical text
built around that string, and the spool records splice it in with
:func:`json_with` instead of encoding the document again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from ..exceptions import ServiceError

__all__ = [
    "PROTOCOL_VERSION",
    "KNOWN_ALGORITHMS",
    "KNOWN_MODELS",
    "KNOWN_PLATFORMS",
    "SEMANTIC_KEYS",
    "ScheduleRequest",
    "WorkEstimate",
    "estimate_work",
    "parse_request",
    "problem_digest",
    "request_trace_context",
    "result_key",
    "canonical_json",
    "json_with",
]

PROTOCOL_VERSION = 1

# mirrors repro.cli._MODELS / repro.platform.presets / the EMTS presets;
# validated here so a bad request fails at parse time with a 400 instead
# of deep inside a worker thread
KNOWN_ALGORITHMS = ("emts5", "emts10")
KNOWN_MODELS = ("model1", "amdahl", "model2", "synthetic", "downey")
KNOWN_PLATFORMS = ("chti", "grelon")

_MAX_PRIORITY = 9


@dataclass(frozen=True)
class ScheduleRequest:
    """A validated scheduling request.

    ``seed`` is always a concrete int (``null`` in the wire document
    resolves to :data:`repro._rng.DEFAULT_SEED`), so every request is
    deterministic and therefore cacheable.
    """

    ptg_doc: dict[str, Any] = field(hash=False)
    platform: str = "chti"
    model: str = "amdahl"
    algorithm: str = "emts5"
    seed: int = 0
    generations: int | None = None
    max_wall_time: float | None = None
    tenant: str = "default"
    priority: int = 0
    #: Client-generated submission identity.  NOT part of the semantic
    #: doc / result key: it identifies one *submission attempt chain*,
    #: not the answer — two different keys with identical problems
    #: still share caches, while a retried POST with the same key is
    #: deduplicated into the original job instead of enqueuing a twin.
    idempotency_key: str | None = None
    #: Client-minted distributed-trace identity (``trace`` wire field).
    #: Like the idempotency key, observability metadata is NOT part of
    #: the semantic doc / result key — tracing a request must never
    #: change which cache entry answers it.
    trace_id: str | None = None
    trace_span: str | None = None
    #: ``canonical_json(ptg_doc)``, encoded once when the request is
    #: made; the document is never mutated after parsing
    ptg_json: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ptg_json", canonical_json(self.ptg_doc))

    def semantic_doc(self) -> dict[str, Any]:
        """Everything that determines the answer, canonically ordered."""
        return {
            "ptg": self.ptg_doc,
            "platform": self.platform,
            "model": self.model,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "generations": self.generations,
            "max_wall_time": self.max_wall_time,
        }


#: Wire-document keys that feed :func:`result_key` — everything else
#: (idempotency key, trace context, tenant/priority routing) is
#: submission metadata.  The stdlib-only client derives its trace id
#: from exactly these keys so same-seed submissions trace identically.
SEMANTIC_KEYS = (
    "ptg",
    "platform",
    "model",
    "algorithm",
    "seed",
    "generations",
    "max_wall_time",
)


def canonical_json(doc: Any) -> str:
    """Stable, whitespace-free JSON used for hashing."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def json_with(doc: dict[str, Any], **encoded: str) -> str:
    """``json.dumps`` of ``doc`` followed by the members ``encoded``.

    The values of ``encoded`` are JSON text already and go in as they
    are, so the result is byte-identical to ``json.dumps`` of the merged
    dict (default separators, members in order) without encoding them
    again.
    """
    text = json.dumps(doc)
    if not encoded:
        return text
    tail = ", ".join(f"{json.dumps(k)}: {v}" for k, v in encoded.items())
    return f"{text[:-1]}, {tail}}}" if doc else f"{{{tail}}}"


def _hash_with_ptg(request: ScheduleRequest, doc: dict[str, Any]) -> str:
    """sha256 of ``canonical_json({**doc, "ptg": request.ptg_doc})``.

    The text is assembled around :attr:`ScheduleRequest.ptg_json`
    instead of encoding the PTG again: sorted keys, no whitespace, so
    the bytes are the ones ``canonical_json`` writes.
    """
    members = {k: canonical_json(v) for k, v in doc.items()}
    members["ptg"] = request.ptg_json
    text = ",".join(f"{json.dumps(k)}:{members[k]}" for k in sorted(members))
    return hashlib.sha256(f"{{{text}}}".encode("utf-8")).hexdigest()


def _bad(message: str) -> ServiceError:
    return ServiceError(message, code="bad-request", status=400)


_HEX_DIGITS = frozenset("0123456789abcdef")


def _is_hex_id(value: str) -> bool:
    return 0 < len(value) <= 64 and all(
        c in _HEX_DIGITS for c in value
    )


def _require_str(doc: dict, key: str, default: str, known: tuple) -> str:
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise _bad(f"{key!r} must be a string, got {type(value).__name__}")
    value = value.lower()
    if value not in known:
        raise _bad(
            f"unknown {key} {value!r}; known: {', '.join(sorted(set(known)))}"
        )
    return value


def parse_request(doc: Any) -> ScheduleRequest:
    """Validate a wire document into a :class:`ScheduleRequest`.

    Raises :class:`repro.exceptions.ServiceError` (status 400) on any
    malformed field; the message is safe to echo back to the client.
    """
    # imported here: protocol stays importable without numpy for clients
    from .._rng import DEFAULT_SEED

    if not isinstance(doc, dict):
        raise _bad(
            f"request must be a JSON object, got {type(doc).__name__}"
        )
    ptg_doc = doc.get("ptg")
    if not isinstance(ptg_doc, dict):
        raise _bad("'ptg' must be an inline repro-ptg document")
    if ptg_doc.get("format") != "repro-ptg":
        raise _bad(
            f"'ptg' is not a repro PTG document "
            f"(format={ptg_doc.get('format')!r})"
        )

    platform = _require_str(doc, "platform", "chti", KNOWN_PLATFORMS)
    model = _require_str(doc, "model", "amdahl", KNOWN_MODELS)
    algorithm = _require_str(doc, "algorithm", "emts5", KNOWN_ALGORITHMS)

    seed = doc.get("seed", None)
    if seed is None:
        seed = DEFAULT_SEED
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise _bad(f"'seed' must be an integer or null, got {seed!r}")
    if seed < 0:
        raise _bad(f"'seed' must be >= 0, got {seed}")

    generations = doc.get("generations", None)
    if generations is not None:
        if isinstance(generations, bool) or not isinstance(generations, int):
            raise _bad(f"'generations' must be an integer, got {generations!r}")
        if generations < 1:
            raise _bad(f"'generations' must be >= 1, got {generations}")

    max_wall_time = doc.get("max_wall_time", None)
    if max_wall_time is not None:
        if isinstance(max_wall_time, bool) or not isinstance(
            max_wall_time, (int, float)
        ):
            raise _bad(
                f"'max_wall_time' must be a number, got {max_wall_time!r}"
            )
        max_wall_time = float(max_wall_time)
        if not max_wall_time > 0:
            raise _bad(f"'max_wall_time' must be > 0, got {max_wall_time}")

    tenant = doc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise _bad("'tenant' must be a non-empty string (<= 64 chars)")

    priority = doc.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise _bad(f"'priority' must be an integer, got {priority!r}")
    if not 0 <= priority <= _MAX_PRIORITY:
        raise _bad(f"'priority' must be in [0, {_MAX_PRIORITY}], got {priority}")

    idempotency_key = doc.get("idempotency_key", None)
    if idempotency_key is not None:
        if (
            not isinstance(idempotency_key, str)
            or not idempotency_key
            or len(idempotency_key) > 128
        ):
            raise _bad(
                "'idempotency_key' must be a non-empty string "
                "(<= 128 chars)"
            )

    trace_id = trace_span = None
    trace = doc.get("trace", None)
    if trace is not None:
        if not isinstance(trace, dict):
            raise _bad(
                f"'trace' must be an object, got {type(trace).__name__}"
            )
        trace_id = trace.get("trace_id")
        trace_span = trace.get("span_id")
        for label, value in (
            ("trace.trace_id", trace_id),
            ("trace.span_id", trace_span),
        ):
            if not isinstance(value, str) or not _is_hex_id(value):
                raise _bad(
                    f"'{label}' must be a lowercase hex id "
                    f"(<= 64 chars), got {value!r}"
                )

    return ScheduleRequest(
        ptg_doc=ptg_doc,
        platform=platform,
        model=model,
        algorithm=algorithm,
        seed=seed,
        generations=generations,
        max_wall_time=max_wall_time,
        tenant=tenant,
        priority=priority,
        idempotency_key=idempotency_key,
        trace_id=trace_id,
        trace_span=trace_span,
    )


def problem_digest(request: ScheduleRequest) -> str:
    """Identity of the prepared problem (PTG + platform + model).

    This is the warm-tier cache key: requests sharing it reuse one
    built time table and one compiled kernel binding, whatever their
    algorithm, seed or budget.
    """
    return _hash_with_ptg(
        request, {"platform": request.platform, "model": request.model}
    )


def result_key(request: ScheduleRequest) -> str:
    """Identity of the full deterministic answer (result-cache key)."""
    doc = request.semantic_doc()
    del doc["ptg"]
    return _hash_with_ptg(request, doc)


#: Cost model of one EMTS generation and one checkpoint journal, in µs,
#: fitted to in-process runs of FFT-15/39/95 under EMTS5 and EMTS10 on
#: Chti and Grelon (``results/service_path.txt``).  A generation costs
#: ``GENERATION_US + λ·V·(GENOME_TASK_US + GENOME_TASK_PROC_US·P)``; a
#: journal costs ``JOURNAL_US + JOURNAL_ALLELE_US·μ·V``.
GENERATION_US = 100.0
GENOME_TASK_US = 0.14
GENOME_TASK_PROC_US = 0.0006
JOURNAL_US = 230.0
JOURNAL_ALLELE_US = 0.3
#: A run journals once the generations since its last journal cost this
#: many journals: a crash then replays at most that much work, and the
#: journals cost at most ``1 / JOURNAL_RATIO`` of the evolution.
JOURNAL_RATIO = 10.0


@dataclass(frozen=True)
class WorkEstimate:
    """Modelled cost of a request's EMTS run, from its shape alone."""

    tasks: int
    processors: int
    mu: int
    lam: int
    generations: int

    @property
    def generation_us(self) -> float:
        """One generation: λ offspring scored by the list scheduler."""
        per_genome = self.tasks * (
            GENOME_TASK_US + GENOME_TASK_PROC_US * self.processors
        )
        return GENERATION_US + self.lam * per_genome

    @property
    def journal_us(self) -> float:
        """One checkpoint journal of the μ parents."""
        return JOURNAL_US + JOURNAL_ALLELE_US * self.mu * self.tasks

    @property
    def run_us(self) -> float:
        """The whole evolution, seeded population included."""
        return (self.generations + 1) * self.generation_us

    @property
    def journal_interval(self) -> int:
        """Generations between journals (``EMTS.schedule``'s keyword)."""
        return math.ceil(
            JOURNAL_RATIO * self.journal_us / self.generation_us
        )


def estimate_work(request: ScheduleRequest) -> WorkEstimate:
    """The request's :class:`WorkEstimate`: a pure function of its shape.

    Reads V from the inline PTG, P from the platform preset and μ, λ and
    the default generation count from the algorithm preset — never wall
    time, so every daemon (and every restart) journals a request at the
    same generations.
    """
    from ..core.config import emts5_config, emts10_config
    from ..platform import by_name

    config = (
        emts5_config() if request.algorithm == "emts5" else emts10_config()
    )
    tasks = request.ptg_doc.get("tasks")
    return WorkEstimate(
        tasks=len(tasks) if isinstance(tasks, list) else 0,
        processors=by_name(request.platform).num_processors,
        mu=config.mu,
        lam=config.lam,
        generations=(
            request.generations
            if request.generations is not None
            else config.generations
        ),
    )


def request_trace_context(request: ScheduleRequest):
    """The request's root :class:`~repro.obs.trace.TraceContext`.

    The client-supplied context wins (it is the one the client logs
    against); a traceless submission gets a server-minted context
    derived from the result key, so either way the id is a pure
    function of the request — same-seed traces stay bit-identical.
    """
    from ..obs.trace import (
        TraceContext,
        derive_span_id,
        derive_trace_id,
    )

    if request.trace_id and request.trace_span:
        return TraceContext(
            trace_id=request.trace_id, span_id=request.trace_span
        )
    tid = derive_trace_id("request", result_key(request))
    return TraceContext(
        trace_id=tid, span_id=derive_span_id(tid, "request")
    )
