"""Tests for the metrics registry (repro.obs.metrics)."""

import json
import sys
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("emts.evaluations", help="genomes")
        c.inc()
        c.inc(9)
        assert c.value == 10
        assert c.to_dict() == {"kind": "counter", "value": 10}

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("emts.makespan")
        g.set(21.8)
        g.set(19.5)
        assert g.value == 19.5

    def test_histogram_buckets(self):
        h = MetricsRegistry().histogram(
            "lat", buckets=(0.001, 0.01, 0.1)
        )
        for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(v)
        # per-bucket (non-cumulative) counts + implicit +inf bucket
        assert h.counts == [1, 2, 1, 1]
        assert h.total == 5
        assert h.sum == pytest.approx(5.0605)

    def test_histogram_rejects_bad_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="increasing"):
            reg.histogram("h", buckets=(0.1, 0.1))
        with pytest.raises(ValueError, match="bucket"):
            reg.histogram("h2", buckets=())

    def test_default_buckets_cover_decades(self):
        assert DEFAULT_SECONDS_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_SECONDS_BUCKETS[-1] == pytest.approx(100.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_names_and_contains(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "c" not in reg
        assert reg.get("c") is None

    def test_value_shortcut(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        assert reg.value("n") == 3

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.01)
        json.dumps(reg.snapshot())  # must not raise


class TestExporters:
    @pytest.fixture
    def reg(self):
        reg = MetricsRegistry()
        reg.counter("emts.evaluations", help="genomes").inc(130)
        reg.gauge("emts.makespan").set(21.8)
        reg.histogram("emts.run_seconds").observe(0.04)
        reg.histogram(
            "evaluation.batch_seconds", buckets=(0.001, 0.1)
        ).observe(0.01)
        return reg

    def test_render_prometheus(self, reg):
        prom = reg.render_prometheus()
        assert "# TYPE repro_emts_evaluations counter" in prom
        assert "repro_emts_evaluations 130" in prom
        assert "repro_emts_makespan 21.8" in prom
        assert 'le="+Inf"' in prom

    def test_prometheus_does_not_double_seconds_suffix(self, reg):
        prom = reg.render_prometheus()
        assert "repro_emts_run_seconds_count 1\n" in prom
        assert "repro_emts_run_seconds_sum 0.04\n" in prom
        assert "seconds_seconds" not in prom

    def test_dump_json_and_prom(self, reg, tmp_path):
        out = reg.dump(tmp_path / "m.json")
        data = json.loads(out.read_text())
        assert data["emts.evaluations"]["value"] == 130
        prom = reg.dump(tmp_path / "m.prom")
        assert prom.read_text().startswith("# TYPE ")

    def test_to_json_round_trips(self, reg):
        assert json.loads(reg.to_json()) == reg.snapshot()


class TestHistogramQuantile:
    """Prometheus-style linear-interpolated quantiles, used by the
    scheduling service to derive p50/p99 latencies for its gates."""

    def _hist(self, values, buckets=(1.0, 2.0, 5.0, 10.0)):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=buckets)
        for v in values:
            h.observe(v)
        return h

    def test_empty_histogram_returns_zero(self):
        assert self._hist([]).quantile(0.99) == 0.0

    def test_median_interpolates_within_bucket(self):
        # 100 samples spread uniformly over (0, 1]: the p50 estimate
        # lands mid-bucket
        h = self._hist([i / 100 for i in range(1, 101)])
        assert 0.4 <= h.quantile(0.5) <= 0.6

    def test_monotone_in_q(self):
        h = self._hist([0.5, 1.5, 3.0, 7.0, 9.0, 9.5])
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_p99_hits_upper_buckets(self):
        h = self._hist([0.1] * 99 + [9.0])
        assert h.quantile(0.5) <= 1.0
        assert h.quantile(0.999) > 5.0

    def test_overflow_clamps_to_last_finite_bound(self):
        h = self._hist([100.0, 200.0])  # all in the +inf bucket
        assert h.quantile(0.99) == 10.0

    def test_validates_q(self):
        h = self._hist([1.0])
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestConcurrentRecording:
    """Any thread records into one registry while another reads it."""

    THREADS = 4
    SNAPSHOTS = 2000
    VALUES = (0.125, 0.375, 0.625, 0.875)  # sums stay exact in binary

    def test_snapshots_are_consistent_and_totals_exact(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        hist = reg.histogram("h", buckets=(0.25, 0.5, 0.75))
        recorded = [0] * self.THREADS
        stop = threading.Event()

        def record(index):
            while not stop.is_set():
                for value in self.VALUES:
                    counter.inc()
                    hist.observe(value)
                recorded[index] += 1

        threads = [
            threading.Thread(target=record, args=(i,), daemon=True)
            for i in range(self.THREADS)
        ]
        torn = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while not all(recorded) and time.monotonic() < deadline:
                time.sleep(0.001)  # every recorder is running
            for _ in range(self.SNAPSHOTS):
                data = reg.snapshot()["h"]
                torn += data["total"] != sum(data["counts"])
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == 0, f"{torn} of {self.SNAPSHOTS} snapshots torn"
        rounds = sum(recorded)
        assert counter.value == hist.total == 4 * rounds
        assert hist.counts == [rounds] * 4
        assert hist.sum == sum(self.VALUES) * rounds
