"""repro.obs — unified observability: tracing, metrics, logs.

A zero-dependency observability layer threaded through every layer of
the scheduler:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms in a :class:`MetricsRegistry` with JSON/Prometheus
  exporters; any thread may record into one registry, which locks its
  own instruments.
* :mod:`repro.obs.trace` — a schema-versioned JSONL event stream
  (:class:`TraceEvent`) of run/phase/generation/evaluation/checkpoint/
  verify and campaign-trial spans; same-seed traces are bit-identical
  after :func:`strip_timestamps`.  The span is the one timed region:
  :func:`phase` times a block of an EMTS run as a ``phase`` event.
* :mod:`repro.obs.log` — the package's single logging configuration
  point (hierarchical ``repro.*`` loggers, optional JSON formatter,
  idempotent handler installation).
* :mod:`repro.obs.assemble` — the one trace reader: a trace file or a
  serving stack's shard directory becomes span trees
  (:func:`load_trace`), one causal tree per request.
* :mod:`repro.obs.report` — the ``repro-emts report-trace`` renderer,
  which walks those trees.
* :mod:`repro.obs.slo` — declarative SLO specs evaluated continuously
  from the metrics registry with multi-window burn-rate alerting.

A daemon's crash record is not kept here: its spool log
(:mod:`repro.service.jobs`) holds every job state change as a frame
that outlives the process, read in order after a death.

Instrumentation is **off by default** and adds <2 % overhead when
disabled (gated by ``benchmarks/check_perf.py``); enable it per run via
``EMTS.schedule(trace=..., metrics=...)`` or the ``--trace`` /
``--metrics-out`` CLI flags.
"""

from .._lazy import lazy_namespace

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    # trace
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
    "phase",
    "read_trace",
    "read_trace_prefix",
    "use_context",
    "validate_event",
    "strip_timestamps",
    "canonical_events",
    # assembly
    "SpanNode",
    "TraceTree",
    "assemble_traces",
    "canonical_tree",
    "load_trace",
    # slo
    "SLOSpec",
    "SLOEngine",
    "default_service_slos",
    "evaluate_bench",
    # logging
    "get_logger",
    "configure_logging",
    "reset_logging",
    "JsonFormatter",
    "LOG_LEVELS",
    # instrumentation + reporting
    "ObservedEvaluator",
    "run_metrics",
    "render_trace_report",
    "run_phases",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".assemble": (
            "SpanNode",
            "TraceTree",
            "assemble_traces",
            "canonical_tree",
            "load_trace",
        ),
        ".instrument": ("ObservedEvaluator", "run_metrics"),
        ".log": (
            "JsonFormatter",
            "LOG_LEVELS",
            "configure_logging",
            "get_logger",
            "reset_logging",
        ),
        ".metrics": (
            "Counter",
            "DEFAULT_SECONDS_BUCKETS",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
        ),
        ".report": ("render_trace_report", "run_phases"),
        ".slo": (
            "SLOEngine",
            "SLOSpec",
            "default_service_slos",
            "evaluate_bench",
        ),
        ".trace": (
            "EVENT_KINDS",
            "SUPPORTED_TRACE_VERSIONS",
            "TRACE_FORMAT",
            "TRACE_VERSION",
            "TraceContext",
            "TraceEvent",
            "Tracer",
            "canonical_events",
            "current_context",
            "derive_span_id",
            "derive_trace_id",
            "phase",
            "read_trace",
            "read_trace_prefix",
            "strip_timestamps",
            "use_context",
            "validate_event",
        ),
    },
)
