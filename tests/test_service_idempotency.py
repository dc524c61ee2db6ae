"""Idempotency-key dedupe: the server half of exactly-once submission.

Covers the full job-state matrix (queued / running / done / failed),
the 409 key-reuse conflict, the LRU bound of the index, and survival
across a daemon restart (the index is rebuilt from the spool).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.graph import ptg_to_dict
from repro.service import (
    DEFAULT_IDEMPOTENCY_ENTRIES,
    JobStore,
    RetryingServiceClient,
    SchedulingService,
    ServiceClient,
    parse_request,
)
from repro.testing import spool_record
from repro.workloads import generate_fft

LONG_GENERATIONS = 400  # keeps the single worker busy while we dedupe


def make_doc(seed=31, generations=1, key=None):
    doc = {
        "ptg": ptg_to_dict(generate_fft(4, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
        "generations": generations,
    }
    if key is not None:
        doc["idempotency_key"] = key
    return doc


def start_service(spool=None):
    service = SchedulingService(
        port=0, workers=1, spool=str(spool) if spool else None
    )
    ready = threading.Event()

    def run():
        async def main():
            await service.start()
            ready.set()
            await service._drained.wait()
            assert service._server is not None
            service._server.close()
            await service._server.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=15), "service did not start"
    return service, thread


def stop_service(service, thread):
    service.request_drain()
    thread.join(timeout=60)
    assert not thread.is_alive()


class TestServerDedupe:
    def test_duplicate_while_queued_returns_original(self, tmp_path):
        service, thread = start_service(tmp_path / "spool")
        try:
            client = ServiceClient(port=service.bound_port, timeout=30)
            # worker busy with a long job; the keyed job sits queued
            client.submit(make_doc(seed=1, generations=LONG_GENERATIONS))
            first = client.submit(
                make_doc(
                    seed=2,
                    generations=LONG_GENERATIONS,
                    key="idem-queued",
                )
            )
            dup = client.submit(
                make_doc(
                    seed=2,
                    generations=LONG_GENERATIONS,
                    key="idem-queued",
                )
            )
            assert dup["job"]["id"] == first["job"]["id"]
            assert dup["deduplicated"] is True
            assert dup["job"]["state"] in ("queued", "running")
            assert len(service.store) == 2  # no twin was enqueued
        finally:
            stop_service(service, thread)

    def test_duplicate_after_done_returns_result_inline(self, tmp_path):
        service, thread = start_service(tmp_path / "spool")
        try:
            client = ServiceClient(port=service.bound_port, timeout=30)
            first = client.schedule(
                make_doc(key="idem-done"), timeout=60
            )
            dup = client.submit(make_doc(key="idem-done"))
            assert dup["job"]["id"] == first["job"]["id"]
            assert dup["deduplicated"] is True
            assert dup["job"]["state"] == "done"
            assert dup["result"] == first["result"]
            metrics = service.metrics.snapshot()
            assert (
                metrics["service.jobs.deduplicated"]["value"] == 1
            )
        finally:
            stop_service(service, thread)

    def test_same_key_different_request_is_a_409(self, tmp_path):
        service, thread = start_service(tmp_path / "spool")
        try:
            client = ServiceClient(port=service.bound_port, timeout=30)
            client.schedule(
                make_doc(seed=1, key="idem-conflict"), timeout=60
            )
            with pytest.raises(ServiceError) as err:
                client.submit(make_doc(seed=2, key="idem-conflict"))
            assert err.value.status == 409
            assert err.value.code == "idempotency-mismatch"
        finally:
            stop_service(service, thread)

    def test_dedupe_beats_the_result_cache(self, tmp_path):
        """A keyed retry gets the ORIGINAL job id, not a cache twin."""
        service, thread = start_service(tmp_path / "spool")
        try:
            client = ServiceClient(port=service.bound_port, timeout=30)
            first = client.schedule(
                make_doc(key="idem-cache"), timeout=60
            )
            # identical request WITHOUT a key: served from result cache
            # as a fresh job (pre-existing behaviour, still intact)
            cached = client.submit(make_doc())
            assert cached["job"]["id"] != first["job"]["id"]
            assert cached["job"]["served_from"] == "result-cache"
            # identical request WITH the key: the original job itself
            deduped = client.submit(make_doc(key="idem-cache"))
            assert deduped["job"]["id"] == first["job"]["id"]
        finally:
            stop_service(service, thread)

    def test_dedupe_survives_restart(self, tmp_path):
        spool = tmp_path / "spool"
        service1, thread1 = start_service(spool)
        client = ServiceClient(port=service1.bound_port, timeout=30)
        first = client.schedule(make_doc(key="idem-restart"), timeout=60)
        stop_service(service1, thread1)

        service2, thread2 = start_service(spool)
        try:
            client2 = ServiceClient(port=service2.bound_port, timeout=30)
            dup = client2.submit(make_doc(key="idem-restart"))
            assert dup["job"]["id"] == first["job"]["id"]
            assert dup["deduplicated"] is True
            assert dup["result"] == first["result"]
        finally:
            stop_service(service2, thread2)


class TestStoreIndex:
    def make_request(self, seed=1, key="idem-x"):
        return parse_request(make_doc(seed=seed, key=key))

    def test_registers_and_finds(self):
        store = JobStore()
        job = store.create(self.make_request())
        assert store.find_idempotent("idem-x") is job
        assert store.find_idempotent("idem-unknown") is None
        assert store.find_idempotent(None) is None

    def test_failed_jobs_still_dedupe(self):
        store = JobStore()
        job = store.create(self.make_request())
        job.state = "failed"
        job.error = {"code": "boom", "message": "kaput"}
        job.done_event.set()
        assert store.find_idempotent("idem-x") is job

    def test_lru_bound_evicts_oldest(self):
        store = JobStore(idempotency_entries=3)
        for i in range(4):
            store.create(self.make_request(seed=i, key=f"idem-{i}"))
        assert store.find_idempotent("idem-0") is None  # evicted
        for i in range(1, 4):
            assert store.find_idempotent(f"idem-{i}") is not None

    def test_lookup_refreshes_lru_position(self):
        store = JobStore(idempotency_entries=3)
        for i in range(3):
            store.create(self.make_request(seed=i, key=f"idem-{i}"))
        store.find_idempotent("idem-0")  # refresh the oldest
        store.create(self.make_request(seed=99, key="idem-99"))
        assert store.find_idempotent("idem-0") is not None
        assert store.find_idempotent("idem-1") is None  # now the oldest

    def test_default_bound_is_generous(self):
        assert JobStore().idempotency_entries == DEFAULT_IDEMPOTENCY_ENTRIES

    def test_keyless_jobs_are_not_indexed(self):
        store = JobStore()
        doc = make_doc()
        store.create(parse_request(doc))
        assert store.find_idempotent(None) is None
        assert len(store._idempotency) == 0

    def test_spool_record_round_trips_the_key(self, tmp_path):
        store = JobStore(tmp_path / "spool")
        job = store.create(self.make_request(key="idem-disk"))
        record = spool_record(tmp_path / "spool", job.id)
        assert record["request"]["idempotency_key"] == "idem-disk"

        fresh = JobStore(tmp_path / "spool")
        fresh.recover()
        found = fresh.find_idempotent("idem-disk")
        assert found is not None and found.id == job.id


class TestProtocolValidation:
    def test_bad_key_shapes_are_rejected(self):
        for bad in ("", 123, "x" * 129, ["k"]):
            with pytest.raises(ServiceError):
                parse_request(make_doc(key=bad))

    def test_key_is_not_part_of_the_result_key(self):
        from repro.service import result_key

        a = parse_request(make_doc(key="idem-a"))
        b = parse_request(make_doc(key="idem-b"))
        assert result_key(a) == result_key(b)


def wait_for_state(client, job_id, state, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.get_job(job_id)["job"]["state"] == state:
            return
        time.sleep(0.005)
    pytest.fail(f"job {job_id} never reached {state!r}")


class TestDedupeWhileRunning:
    def test_duplicate_while_running_returns_202(self, tmp_path):
        service, thread = start_service(tmp_path / "spool")
        try:
            client = ServiceClient(port=service.bound_port, timeout=30)
            first = client.submit(
                make_doc(generations=LONG_GENERATIONS, key="idem-run")
            )
            wait_for_state(client, first["job"]["id"], "running")
            dup = client.submit(
                make_doc(generations=LONG_GENERATIONS, key="idem-run")
            )
            assert dup["job"]["id"] == first["job"]["id"]
            assert dup["deduplicated"] is True
            assert dup["job"]["state"] == "running"
        finally:
            stop_service(service, thread)


class TestWaitedDedupe:
    """A ``?wait=`` resubmission deduplicated into a job that is still
    queued or running keeps ``"deduplicated": true`` once it has
    waited, as the same resubmission without ``?wait=`` does."""

    GENERATIONS = 300

    def test_waited_resubmission_keeps_the_flag(self, tmp_path):
        service, thread = start_service(tmp_path / "spool")
        try:
            client = ServiceClient(port=service.bound_port, timeout=90)
            doc = make_doc(generations=self.GENERATIONS, key="idem-wait")
            first = client.submit(doc)
            assert first["job"]["state"] in ("queued", "running")
            dup = client.submit(doc, wait=60)
            assert dup["job"]["id"] == first["job"]["id"]
            assert dup["job"]["state"] == "done"
            assert dup["deduplicated"] is True
            assert len(service.store) == 1
        finally:
            stop_service(service, thread)

    def test_retrying_client_counts_a_waited_dedupe(self, tmp_path):
        service, thread = start_service(tmp_path / "spool")
        try:
            plain = ServiceClient(port=service.bound_port, timeout=90)
            doc = make_doc(generations=self.GENERATIONS, key="idem-retry")
            first = plain.submit(doc)
            assert first["job"]["state"] in ("queued", "running")
            retrying = RetryingServiceClient(client=plain)
            done = retrying.schedule(doc, timeout=60)
            assert done["job"]["id"] == first["job"]["id"]
            assert done["job"]["state"] == "done"
            assert done["deduplicated"] is True
            assert retrying.stats.deduplicated == 1
            metrics = service.metrics.snapshot()
            assert metrics["service.jobs.deduplicated"]["value"] == 1
        finally:
            stop_service(service, thread)
