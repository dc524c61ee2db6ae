"""Priority ordering, tenant fairness and backpressure of the FairQueue."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ServiceError
from repro.service import FairQueue, QueueFull


def drain(q: FairQueue) -> list:
    out = []
    while True:
        item = q.get(timeout=0)
        if item is None:
            return out
        out.append(item)


class TestOrdering:
    def test_fifo_within_tenant(self):
        q = FairQueue()
        for i in range(5):
            q.put(i, tenant="t")
        assert drain(q) == [0, 1, 2, 3, 4]

    def test_priority_first(self):
        q = FairQueue()
        q.put("low", tenant="t", priority=0)
        q.put("high", tenant="t", priority=5)
        q.put("mid", tenant="t", priority=2)
        assert drain(q) == ["high", "mid", "low"]

    def test_round_robin_across_tenants(self):
        q = FairQueue()
        # alice floods before bob submits one job
        for i in range(3):
            q.put(f"a{i}", tenant="alice")
        q.put("b0", tenant="bob")
        order = drain(q)
        # bob's job must not wait behind the whole alice backlog
        assert order.index("b0") < order.index("a1")
        assert [x for x in order if x.startswith("a")] == [
            "a0", "a1", "a2",
        ]

    def test_priority_beats_fairness(self):
        q = FairQueue()
        q.put("a-low", tenant="alice", priority=0)
        q.put("b-high", tenant="bob", priority=1)
        assert drain(q) == ["b-high", "a-low"]


class TestBackpressure:
    def test_global_depth_limit(self):
        q = FairQueue(max_depth=2, tenant_quota=10)
        q.put(1, tenant="a")
        q.put(2, tenant="b")
        with pytest.raises(QueueFull) as err:
            q.put(3, tenant="c")
        assert err.value.status == 429
        assert err.value.retry_after is not None

    def test_tenant_quota(self):
        q = FairQueue(max_depth=100, tenant_quota=2)
        q.put(1, tenant="greedy")
        q.put(2, tenant="greedy")
        with pytest.raises(QueueFull):
            q.put(3, tenant="greedy")
        # other tenants are unaffected
        q.put(4, tenant="polite")

    def test_quota_releases_on_get(self):
        q = FairQueue(max_depth=100, tenant_quota=1)
        q.put(1, tenant="t")
        with pytest.raises(QueueFull):
            q.put(2, tenant="t")
        assert q.get(timeout=0) == 1
        q.put(2, tenant="t")

    def test_closed_queue_rejects_with_503(self):
        q = FairQueue()
        q.close()
        with pytest.raises(ServiceError) as err:
            q.put(1, tenant="t")
        assert err.value.status == 503
        assert err.value.code == "draining"

    def test_depth_accounting(self):
        q = FairQueue()
        assert q.depth == 0
        q.put(1, tenant="a", priority=1)
        q.put(2, tenant="b")
        assert q.depth == 2
        assert q.tenant_depth("a") == 1
        q.get(timeout=0)
        assert q.depth == 1


class TestBlockingGet:
    def test_timeout_returns_none(self):
        q = FairQueue()
        assert q.get(timeout=0.01) is None

    def test_get_wakes_on_put(self):
        q = FairQueue()
        got = []
        t = threading.Thread(
            target=lambda: got.append(q.get(timeout=5.0))
        )
        t.start()
        q.put("x", tenant="t")
        t.join(timeout=5.0)
        assert got == ["x"]

    def test_drain_remaining(self):
        q = FairQueue()
        for i in range(4):
            q.put(i, tenant="t")
        assert sorted(q.drain_remaining()) == [0, 1, 2, 3]
        assert q.depth == 0


class TestQueueMetrics:
    """Sampled depth gauge + per-lane wait histograms."""

    def _metered_queue(self, **kwargs):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        return (
            FairQueue(metrics=registry, **kwargs),
            registry,
        )

    def test_depth_gauge_tracks_put_and_get(self):
        q, registry = self._metered_queue()
        for i in range(3):
            q.put(i, tenant="t")
        assert (
            registry.snapshot()["service.queue.depth"]["value"] == 3
        )
        q.get(timeout=0)
        assert (
            registry.snapshot()["service.queue.depth"]["value"] == 2
        )

    def test_wait_histogram_per_priority_lane(self):
        q, registry = self._metered_queue()
        q.put("a", tenant="t", priority=0)
        q.put("b", tenant="t", priority=5)
        while q.get(timeout=0) is not None:
            pass
        snapshot = registry.snapshot()
        for lane in ("p0", "p5"):
            hist = snapshot[f"service.queue.wait_seconds.{lane}"]
            assert hist["kind"] == "histogram"
            assert hist["total"] == 1

    def test_rejected_puts_leave_no_sample(self):
        q, registry = self._metered_queue(max_depth=1)
        q.put("a", tenant="t")
        with pytest.raises(QueueFull):
            q.put("b", tenant="t")
        assert (
            registry.snapshot()["service.queue.depth"]["value"] == 1
        )

    def test_queue_without_registry_records_nothing(self):
        q = FairQueue()
        q.put("a", tenant="t")
        assert q.get(timeout=0) == "a"
