"""Service chaos harness: fault-injecting proxy + spool corruptors.

The headline acceptance test lives here: a submit whose ack is eaten
by a connection reset (the POST landed, the client never heard) is
retried through :class:`RetryingServiceClient` and comes back with the
ORIGINAL job id — no duplicate job, no lost work.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.graph import ptg_to_dict
from repro.service import (
    Job,
    JobStore,
    RetryingServiceClient,
    RetryPolicy,
    SchedulingService,
    ServiceClient,
    ServiceUnavailable,
    parse_request,
)
from repro.testing import (
    CORRUPTION_MODES,
    ChaosProxy,
    ProxyPlan,
    corrupt_record,
    quarantined_files,
    spool_job_ids,
)
from repro.workloads import generate_fft


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


@pytest.fixture
def service(tmp_path):
    service, thread = start_service(tmp_path / "spool")
    yield service
    stop_service(service, thread)


def retrying_client(port, **policy_kwargs):
    policy_kwargs.setdefault("seed", 7)
    policy_kwargs.setdefault("base", 0.01)
    policy_kwargs.setdefault("cap", 0.05)
    return RetryingServiceClient(
        port=port, policy=RetryPolicy(**policy_kwargs)
    )


class TestChaosProxy:
    def test_clean_passthrough(self, service):
        with ChaosProxy(service.bound_port) as proxy:
            client = ServiceClient(port=proxy.port, timeout=10)
            assert client.healthz()["status"] == "ok"
            doc = client.schedule(make_doc(), timeout=60)
            assert doc["job"]["state"] == "done"
            assert proxy.faults_injected == 0
            assert proxy.connections >= 2

    def test_dropped_connection_surfaces_as_unavailable(self, service):
        plan = ProxyPlan(drop_connections=frozenset({0}))
        with ChaosProxy(service.bound_port, plan=plan) as proxy:
            client = ServiceClient(port=proxy.port, timeout=10)
            with pytest.raises(ServiceUnavailable):
                client.healthz()
            assert client.healthz()["status"] == "ok"  # connection 1
            assert proxy.faults_injected == 1

    @pytest.mark.parametrize("cut", [5, 200])
    def test_truncated_response_surfaces_as_unavailable(
        self, service, cut
    ):
        # cut=5 tears the status line (BadStatusLine); cut=200 tears
        # the body short of its Content-Length (IncompleteRead) — both
        # must surface as the retryable ServiceUnavailable
        plan = ProxyPlan(
            truncate_response=frozenset({0}), truncate_bytes=cut
        )
        with ChaosProxy(service.bound_port, plan=plan) as proxy:
            client = ServiceClient(port=proxy.port, timeout=10)
            with pytest.raises(ServiceUnavailable):
                client.stats()

    def test_retrying_client_rides_through_drops(self, service):
        plan = ProxyPlan(drop_connections=frozenset({0, 1}))
        with ChaosProxy(service.bound_port, plan=plan) as proxy:
            client = retrying_client(proxy.port)
            assert client.healthz()["status"] == "ok"
            assert client.stats.retries == 2

    def test_reset_after_post_retry_returns_original_job(self, service):
        """THE exactly-once acceptance test.

        Connection 0 carries the POST: the daemon processes it (job
        created, queued, durable) but the ack is replaced by an RST.
        The retried POST on connection 1 must find the original job by
        idempotency key — never enqueue a twin.
        """
        plan = ProxyPlan(reset_after_request=frozenset({0}))
        with ChaosProxy(service.bound_port, plan=plan) as proxy:
            client = retrying_client(proxy.port)
            doc = client.submit(make_doc(generations=2))
            assert client.stats.retries == 1
            assert doc["deduplicated"] is True  # found the first POST
            assert len(service.store) == 1  # exactly one job exists
            only_job = service.store.jobs()[0]
            assert doc["job"]["id"] == only_job.id
            final = client.wait_for(doc["job"]["id"], timeout=60)
            assert final["job"]["state"] == "done"
            assert len(service.store) == 1

    def test_sampled_plan_is_reproducible(self):
        a = ProxyPlan.sampled(
            50, seed=3, drop_rate=0.2, reset_rate=0.1
        )
        b = ProxyPlan.sampled(
            50, seed=3, drop_rate=0.2, reset_rate=0.1
        )
        assert a == b
        assert a.drop_connections  # the rates actually sampled faults
        assert a.drop_connections.isdisjoint(a.reset_after_request)

    def test_schedule_under_sampled_chaos(self, service):
        plan = ProxyPlan.sampled(
            100,
            seed=5,
            drop_rate=0.2,
            reset_rate=0.1,
            delay_rate=0.1,
            delay_seconds=0.01,
        )
        with ChaosProxy(service.bound_port, plan=plan) as proxy:
            client = retrying_client(proxy.port, max_attempts=10)
            doc = client.schedule(make_doc(seed=77), timeout=120)
            assert doc["job"]["state"] == "done"
            # chaos must not have spawned duplicate jobs
            assert len(service.store) == 1


class TestSpoolCorruption:
    def populated_store(self, tmp_path, n=3):
        """``n`` done jobs, one frame each in the spool log."""
        spool = tmp_path / "spool"
        store = JobStore(spool)
        jobs = []
        for i in range(n):
            job = Job(
                id=f"job-{i:012x}",
                request=parse_request(make_doc(seed=i, key=f"idem-{i}")),
                state="done",
                result={"makespan": 1.0 + i},
                finished_at=1.0 + i,
            )
            store.add(job)
            jobs.append(job)
        store.close()
        return spool, jobs

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_each_corruption_shape_is_quarantined(self, tmp_path, mode):
        spool, jobs = self.populated_store(tmp_path)
        corrupt_record(spool, jobs[0].id, mode, seed=1)

        fresh = JobStore(spool)
        fresh.recover()
        assert len(fresh.quarantined) == 1
        assert quarantined_files(spool) == fresh.quarantined
        # healthy frames recovered untouched
        assert {j.id for j in fresh.jobs()} == {j.id for j in jobs[1:]}
        # the bad bytes left the log: a second recovery finds nothing
        again = JobStore(spool)
        again.recover()
        assert again.quarantined == []
        assert {j.id for j in again.jobs()} == {j.id for j in jobs[1:]}

    def test_tampered_record_does_not_parse(self, tmp_path):
        # the tampered frame no longer matches its CRC, so no reader
        # takes it for a record
        spool, jobs = self.populated_store(tmp_path, n=2)
        corrupt_record(spool, jobs[0].id, "tamper", seed=1)
        assert spool_job_ids(spool) == {jobs[1].id}

    def test_multiple_corrupt_records_all_quarantined(self, tmp_path):
        spool, jobs = self.populated_store(tmp_path, n=6)
        for job, mode in zip(jobs[::2], ("truncate", "zero", "tamper")):
            corrupt_record(spool, job.id, mode, seed=1)
        fresh = JobStore(spool)
        recovered = fresh.recover()
        assert len(fresh.quarantined) == 3
        assert recovered == []  # survivors were all done
        assert {j.id for j in fresh.jobs()} == {j.id for j in jobs[1::2]}

    def test_quarantine_preserves_bytes_for_forensics(self, tmp_path):
        spool, jobs = self.populated_store(tmp_path, n=2)
        corrupted_bytes = corrupt_record(spool, jobs[0].id, "truncate")
        fresh = JobStore(spool)
        fresh.recover()
        assert fresh.quarantined[0].read_bytes() == corrupted_bytes
        assert corrupted_bytes not in (spool / "jobs.log").read_bytes()

    def test_unknown_mode_rejected(self, tmp_path):
        spool, jobs = self.populated_store(tmp_path, n=1)
        with pytest.raises(ValueError):
            corrupt_record(spool, jobs[0].id, "bitrot")

    def test_daemon_counts_quarantined_records(self, tmp_path):
        spool, jobs = self.populated_store(tmp_path)
        corrupt_record(spool, jobs[0].id, "zero")
        service, thread = start_service(spool)
        try:
            assert (
                service.metrics.value("service.spool.quarantined") == 1
            )
            # the daemon still serves: healthy records were adopted
            client = ServiceClient(port=service.bound_port, timeout=10)
            assert client.healthz()["status"] == "ok"
        finally:
            stop_service(service, thread)
