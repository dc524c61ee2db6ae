"""Tests for the single logging configuration point (repro.obs.log)."""

import io
import json
import logging

import pytest

from repro.obs import (
    JsonFormatter,
    LOG_LEVELS,
    configure_logging,
    get_logger,
    reset_logging,
)


@pytest.fixture(autouse=True)
def clean_logging():
    """Leave the process's logging state as we found it."""
    reset_logging()
    yield
    reset_logging()


class TestGetLogger:
    def test_relative_name_lands_under_repro(self):
        assert get_logger("core.emts").name == "repro.core.emts"

    def test_qualified_name_passes_through(self):
        assert get_logger("repro.ea").name == "repro.ea"

    def test_root_name(self):
        assert get_logger("repro").name == "repro"

    def test_module_loggers_use_the_hierarchy(self):
        """Every instrumented module hangs off the repro root."""
        from repro.core import emts, mutation
        from repro.ea import strategy
        from repro.mapping import _cscheduler

        for module in (emts, mutation, strategy, _cscheduler):
            assert module._log.name.startswith("repro.")


class TestConfigureLogging:
    def test_installs_exactly_one_handler(self):
        root = configure_logging(level="info")
        assert len(root.handlers) == 1

    def test_reconfiguration_does_not_stack_handlers(self):
        """The CLI double-invocation bug: records must print once."""
        stream = io.StringIO()
        for _ in range(3):
            configure_logging(level="info", stream=stream)
        get_logger("core.emts").info("hello")
        lines = [
            line for line in stream.getvalue().splitlines() if line
        ]
        assert lines == ["INFO repro.core.emts: hello"]

    def test_level_filtering(self):
        stream = io.StringIO()
        configure_logging(level="warning", stream=stream)
        log = get_logger("ea")
        log.info("quiet")
        log.warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_numeric_level(self):
        root = configure_logging(level=logging.DEBUG)
        assert root.level == logging.DEBUG

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="chatty")

    def test_all_documented_levels_accepted(self):
        for level in LOG_LEVELS:
            configure_logging(level=level)

    def test_foreign_handlers_are_left_alone(self):
        root = logging.getLogger("repro")
        foreign = logging.NullHandler()
        root.addHandler(foreign)
        try:
            configure_logging()
            configure_logging()
            assert foreign in root.handlers
            ours = [h for h in root.handlers if h is not foreign]
            assert len(ours) == 1
        finally:
            root.removeHandler(foreign)

    def test_reset_removes_installed_handler(self):
        configure_logging()
        reset_logging()
        root = logging.getLogger("repro")
        assert root.handlers == []
        assert root.propagate


class TestJsonFormatter:
    def record(self, **kwargs):
        return logging.LogRecord(
            name="repro.core.emts",
            level=logging.WARNING,
            pathname=__file__,
            lineno=1,
            msg="evaluated %d genomes",
            args=(25,),
            exc_info=kwargs.get("exc_info"),
        )

    def test_fields(self):
        payload = json.loads(JsonFormatter().format(self.record()))
        assert payload["level"] == "warning"
        assert payload["logger"] == "repro.core.emts"
        assert payload["message"] == "evaluated 25 genomes"
        assert isinstance(payload["ts"], float)

    def test_exception_info(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            import sys

            record = self.record(exc_info=sys.exc_info())
        payload = json.loads(JsonFormatter().format(record))
        assert "boom" in payload["exc"]

    def test_json_stream_end_to_end(self):
        stream = io.StringIO()
        configure_logging(level="info", json_output=True, stream=stream)
        get_logger("mapping.ckernel").info("kernel ready")
        payload = json.loads(stream.getvalue())
        assert payload["message"] == "kernel ready"
        assert payload["logger"] == "repro.mapping.ckernel"


class TestTraceStamping:
    """``--log-json`` records join the active distributed trace."""

    def test_active_context_stamped_onto_records(self):
        from repro.obs import TraceContext, use_context

        stream = io.StringIO()
        configure_logging(level="info", json_output=True, stream=stream)
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        with use_context(ctx):
            get_logger("service.worker").info("job started")
        payload = json.loads(stream.getvalue())
        assert payload["trace_id"] == ctx.trace_id
        assert payload["span_id"] == ctx.span_id

    def test_no_context_no_trace_fields(self):
        stream = io.StringIO()
        configure_logging(level="info", json_output=True, stream=stream)
        get_logger("service.worker").info("idle")
        payload = json.loads(stream.getvalue())
        assert "trace_id" not in payload
        assert "span_id" not in payload

    def test_context_is_thread_local(self):
        import threading

        from repro.obs import TraceContext, use_context

        stream = io.StringIO()
        configure_logging(level="info", json_output=True, stream=stream)
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)

        def other_thread():
            get_logger("service.worker").info("from elsewhere")

        with use_context(ctx):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        payload = json.loads(stream.getvalue())
        assert "trace_id" not in payload
