"""Graceful drain: SIGTERM-style shutdown checkpoints in-flight jobs
and a restarted daemon resumes them bit-identically (PR 3 contract)."""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.core import emts5
from repro.exceptions import ServiceError
from repro.graph import ptg_to_dict
from repro.mapping import schedule_to_dict
from repro.platform import by_name
from repro.service import (
    JobStore,
    SchedulingService,
    ServiceClient,
    parse_request,
)
from repro.testing import spool_record
from repro.timemodels import TimeTable
from repro.workloads import generate_fft

#: enough generations that the drain lands mid-run, cheap enough that
#: the full (interrupt + resume + offline reference) test stays fast
GENERATIONS = 150
SEED = 31


def make_doc():
    return {
        "ptg": ptg_to_dict(generate_fft(4, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": SEED,
        "generations": GENERATIONS,
    }


def start_service(spool) -> tuple[SchedulingService, threading.Thread]:
    service = SchedulingService(port=0, workers=1, spool=str(spool))
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


class TestDrainAndResume:
    def test_drain_checkpoints_and_restart_resumes_bit_identically(
        self, tmp_path
    ):
        spool = tmp_path / "spool"

        # -- phase 1: submit a long job, drain mid-run -----------------
        service1, thread1 = start_service(spool)
        client = ServiceClient(port=service1.bound_port, timeout=30.0)
        job_id = client.submit(make_doc())["job"]["id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.get_job(job_id)["job"]["state"] == "running":
                break
            time.sleep(0.005)
        else:
            pytest.fail("job never started running")
        service1.request_drain()
        thread1.join(timeout=60)
        assert not thread1.is_alive(), "drain did not complete"

        job1 = service1.store.get(job_id)
        assert job1 is not None
        assert job1.state == "interrupted", (
            f"expected an interrupted job, got {job1.state!r} — "
            f"raise GENERATIONS if the run finished before the drain"
        )
        ckpt = spool / "checkpoints" / f"{job_id}.json"
        assert ckpt.exists(), "drain did not leave a resumable checkpoint"
        checkpoint_doc = json.loads(ckpt.read_text())
        assert checkpoint_doc["generation"] < GENERATIONS

        # the spool record survived with the full request
        record = spool_record(spool, job_id)
        assert record["state"] == "interrupted"
        assert record["request"]["seed"] == SEED

        # -- phase 2: a fresh daemon adopts the spool and resumes ------
        service2, thread2 = start_service(spool)
        try:
            client2 = ServiceClient(
                port=service2.bound_port, timeout=30.0
            )
            doc = client2.wait_for(job_id, timeout=120)
            assert doc["job"]["state"] == "done"
            assert doc["job"]["served_from"] == "resume"
            result = doc["result"]
            assert result["interrupted"] is False
            assert result["generations"] == GENERATIONS + 1
            assert not ckpt.exists(), (
                "checkpoint should be cleaned up after completion"
            )
        finally:
            service2.request_drain()
            thread2.join(timeout=60)

        # -- phase 3: bit-identical to one uninterrupted offline run ---
        ptg = generate_fft(4, rng=7)
        cluster = by_name("chti")
        from repro.cli import _make_model

        table = TimeTable.build(_make_model("amdahl"), ptg, cluster)
        offline = emts5(generations=GENERATIONS).schedule(
            ptg, cluster, table, rng=SEED
        )
        assert result["makespan"] == offline.makespan
        assert result["evaluations"] == offline.log.total_evaluations
        assert json.dumps(
            result["schedule"], sort_keys=True
        ) == json.dumps(
            schedule_to_dict(offline.schedule), sort_keys=True
        )

    def test_drain_rejects_new_submissions(self, tmp_path):
        service, thread = start_service(tmp_path / "spool")
        client = ServiceClient(port=service.bound_port, timeout=30.0)
        # a finished job keeps the daemon warm but idle
        client.schedule(make_doc() | {"generations": 1}, timeout=60)
        service.request_drain()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not service.draining:
            time.sleep(0.01)
        from repro.service import ServiceUnavailable

        try:
            with pytest.raises(ServiceUnavailable):
                client.submit(make_doc() | {"seed": 999})
        except Exception:
            # the daemon may already have closed its socket, which is
            # also a correct refusal (surfaces as ServiceUnavailable)
            raise
        finally:
            thread.join(timeout=60)

    def test_spool_recovery_of_queued_jobs(self, tmp_path):
        """Jobs still queued (never started) also survive a restart."""
        spool = tmp_path / "spool"
        service1, thread1 = start_service(spool)
        client = ServiceClient(port=service1.bound_port, timeout=30.0)
        # worker=1 busy with a long job; a second job waits in queue
        running_id = client.submit(make_doc())["job"]["id"]
        queued_id = client.submit(make_doc() | {"seed": 77})["job"]["id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.get_job(running_id)["job"]["state"] == "running":
                break
            time.sleep(0.005)
        service1.request_drain()
        thread1.join(timeout=60)

        service2, thread2 = start_service(spool)
        try:
            client2 = ServiceClient(
                port=service2.bound_port, timeout=30.0
            )
            done = client2.wait_for(queued_id, timeout=120)
            assert done["job"]["state"] == "done"
        finally:
            service2.request_drain()
            thread2.join(timeout=60)

    def test_recovered_jobs_past_the_quota_all_run(self, tmp_path):
        """Jobs acked before a restart are never refused by the queue:
        quota + 1 recovered jobs of one tenant all reach done, and they
        hold new submissions of that tenant off until they drain."""
        spool = tmp_path / "spool"
        store = JobStore(spool)
        ids = [
            store.create(
                parse_request(make_doc() | {"seed": s, "generations": 1})
            ).id
            for s in range(3)
        ]
        store.close()
        service = SchedulingService(
            port=0, workers=1, spool=str(spool), tenant_quota=2
        )
        assert service.recover_spool() == 3
        assert service.queue.depth == 3
        with pytest.raises(ServiceError) as refused:
            service.submit(make_doc() | {"seed": 9, "generations": 1})
        assert refused.value.status == 429
        service.pool.start()
        try:
            for job_id in ids:
                job = service.store.get(job_id)
                assert job.done_event.wait(timeout=60), job.state
                assert job.state == "done"
        finally:
            service.pool.stop()
        assert service.queue.depth == 0
