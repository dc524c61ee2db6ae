"""Priority ordering, tenant fairness and backpressure of the FairQueue."""

from __future__ import annotations

import sys
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


class TestReservation:
    def test_reserved_slot_counts_against_depth_and_quota(self):
        q = FairQueue(max_depth=2, tenant_quota=1)
        q.reserve("a")
        assert q.depth == 1 and q.tenant_depth("a") == 1
        with pytest.raises(QueueFull):
            q.put(1, tenant="a")  # a's quota is held
        q.reserve("b")
        with pytest.raises(QueueFull):
            q.reserve("c")  # the depth limit is held
        assert q.get(timeout=0) is None  # nothing to take yet

    def test_fill_takes_the_reserved_slot(self):
        q = FairQueue(max_depth=1, tenant_quota=1)
        q.reserve("a")
        q.fill("job", tenant="a")
        assert q.depth == 1
        assert q.get(timeout=0) == "job"
        assert q.depth == 0 and q.tenant_depth("a") == 0

    def test_release_gives_the_slot_back(self):
        q = FairQueue(max_depth=1, tenant_quota=1)
        q.reserve("a")
        q.release("a")
        assert q.depth == 0 and q.tenant_depth("a") == 0
        q.put(1, tenant="a")
        assert q.drain_remaining() == [1]

    def test_closed_queue_refuses_a_reservation(self):
        q = FairQueue()
        q.close()
        with pytest.raises(ServiceError) as err:
            q.reserve("t")
        assert err.value.status == 503
        assert q.depth == 0

    def test_concurrent_reservations_keep_the_bounds(self):
        """Reserving, filling, releasing and taking from many threads
        never lets the queue hold more than its limits, and every
        filled slot is taken exactly once."""
        q = FairQueue(max_depth=5, tenant_quota=3)
        producers, per_producer = 6, 300
        taken, peak = [], []
        done = threading.Event()

        def produce(n):
            tenant = f"t{n % 2}"
            for i in range(per_producer):
                while True:
                    try:
                        q.reserve(tenant)
                        break
                    except QueueFull:
                        pass
                peak.append(q.depth)
                if i % 3 == 0:
                    q.release(tenant)
                else:
                    q.fill((n, i), tenant=tenant)

        def consume():
            while not done.is_set() or q.depth:
                item = q.get(timeout=0.01)
                if item is not None:
                    taken.append(item)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=produce, args=(n,))
                for n in range(producers)
            ]
            consumers = [threading.Thread(target=consume) for _ in range(2)]
            for t in threads + consumers:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            for t in consumers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads + consumers)
        filled = {
            (n, i)
            for n in range(producers)
            for i in range(per_producer)
            if i % 3
        }
        assert sorted(taken) == sorted(filled)
        assert max(peak) <= q.max_depth
        assert q.depth == 0 and q.tenant_depth("t0") == 0


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
