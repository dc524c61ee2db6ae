"""Scheduling-as-a-service: the ``repro-emts serve`` daemon.

High-throughput front-end over the EMTS stack: an asyncio HTTP/JSON
server (:mod:`.server`) backed by warm worker threads (:mod:`.worker`),
a per-tenant fair queue with backpressure (:mod:`.queue`), two cache
tiers (:mod:`.cache` — prepared problems + finished results), a
crash-only job spool (:mod:`.jobs`) and a small client (:mod:`.client`)
used by ``repro-emts submit`` and the load bench.
"""

from .._lazy import lazy_namespace

__all__ = [
    "ScheduleRequest",
    "parse_request",
    "problem_digest",
    "result_key",
    "canonical_json",
    "request_trace_context",
    "mint_trace_field",
    "SEMANTIC_KEYS",
    "QUEUE_WAIT_BUCKETS",
    "PROTOCOL_VERSION",
    "KNOWN_ALGORITHMS",
    "KNOWN_MODELS",
    "KNOWN_PLATFORMS",
    "PreparedProblem",
    "prepare_problem",
    "WarmCache",
    "ResultCache",
    "CacheStats",
    "FairQueue",
    "QueueFull",
    "Job",
    "JobStore",
    "JOB_STATES",
    "DEFAULT_IDEMPOTENCY_ENTRIES",
    "WorkerPool",
    "run_request",
    "SchedulingService",
    "serve",
    "ServiceClient",
    "ServiceUnavailable",
    "QueueFullError",
    "JobTimeout",
    "RetryPolicy",
    "RetryingServiceClient",
    "RetryStats",
    "DEFAULT_RETRY_LEDGER",
    "new_idempotency_key",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".cache": (
            "CacheStats",
            "PreparedProblem",
            "ResultCache",
            "WarmCache",
            "prepare_problem",
        ),
        ".client": (
            "JobTimeout",
            "QueueFullError",
            "ServiceClient",
            "ServiceUnavailable",
            "mint_trace_field",
        ),
        ".jobs": (
            "DEFAULT_IDEMPOTENCY_ENTRIES",
            "JOB_STATES",
            "Job",
            "JobStore",
        ),
        ".protocol": (
            "KNOWN_ALGORITHMS",
            "KNOWN_MODELS",
            "KNOWN_PLATFORMS",
            "PROTOCOL_VERSION",
            "SEMANTIC_KEYS",
            "ScheduleRequest",
            "canonical_json",
            "parse_request",
            "problem_digest",
            "request_trace_context",
            "result_key",
        ),
        ".queue": ("QUEUE_WAIT_BUCKETS", "FairQueue", "QueueFull"),
        ".retry": (
            "DEFAULT_RETRY_LEDGER",
            "RetryingServiceClient",
            "RetryPolicy",
            "RetryStats",
            "new_idempotency_key",
        ),
        ".server": ("SchedulingService", "serve"),
        ".worker": ("WorkerPool", "run_request"),
    },
)
