"""What the service path costs: the journal cadence, the reply on
completion and the bound on finished jobs held in memory.

Each cost cut keeps the contracts it sits on: a service answer equals
an in-process ``EMTS.schedule`` run bit for bit, a drained or crashed
run resumes bit-identically, and a finished job stays answerable (from
the spool) after it leaves memory.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import json
import shutil
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.emts as emts_module
from repro.cli import _make_model
from repro.core import emts5
from repro.core.checkpoint import load_checkpoint
from repro.exceptions import ConfigurationError
from repro.graph import ptg_to_dict
from repro.mapping import schedule_to_dict
from repro.platform import by_name
from repro.service import SchedulingService, ServiceClient
from repro.service.jobs import DEFAULT_FINISHED_JOBS, Job, JobStore
from repro.service.protocol import estimate_work, parse_request
from repro.timemodels import TimeTable
from repro.workloads import generate_fft

JOURNALED_SPOOL = (
    Path(__file__).parent / "data" / "per_generation_journal_spool"
)


def make_doc(size=8, seed=5, **extra):
    doc = {
        "ptg": ptg_to_dict(generate_fft(size, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
    }
    doc.update(extra)
    return doc


def in_process(size, seed, generations=None):
    """The answer of ``EMTS.schedule`` for ``make_doc(size, seed)``."""
    ptg = generate_fft(size, rng=7)
    cluster = by_name("chti")
    table = TimeTable.build(_make_model("amdahl"), ptg, cluster)
    overrides = {} if generations is None else {"generations": generations}
    return emts5(**overrides).schedule(ptg, cluster, table, rng=seed)


@contextmanager
def live_service(**kwargs):
    """An in-process daemon on an ephemeral port, drained on exit."""
    service = SchedulingService(port=0, **kwargs)
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
    try:
        yield service, ServiceClient(port=service.bound_port, timeout=60)
    finally:
        service.request_drain()
        thread.join(timeout=60)


@pytest.fixture
def count_journals(monkeypatch):
    """Count the engine's ``save_checkpoint`` calls."""
    calls = []
    real = emts_module.save_checkpoint

    def counting(checkpoint, path):
        calls.append(checkpoint.generation)
        return real(checkpoint, path)

    monkeypatch.setattr(emts_module, "save_checkpoint", counting)
    return calls


def trajectory(result):
    return [(e.best, e.evaluations) for e in result.log.entries]


# ----------------------------------------------------------------------
class TestJournalInterval:
    def test_pure_function_of_the_request_shape(self):
        doc = make_doc()
        base = estimate_work(parse_request(doc))
        # recomputing, and every field that does not shape the run,
        # leave the estimate alone
        for extra in (
            {},
            {"tenant": "other", "priority": 7},
            {"idempotency_key": "idem-cadence"},
            {"max_wall_time": 0.5},
            {"seed": 99},
        ):
            again = estimate_work(parse_request(make_doc(**extra)))
            assert again == base
            assert again.journal_interval == base.journal_interval
        # V, P, λ and the generations do shape it
        assert estimate_work(parse_request(make_doc(size=16))) != base
        grelon = estimate_work(parse_request(make_doc(platform="grelon")))
        assert grelon.processors == 120 and grelon != base
        emts10 = estimate_work(parse_request(make_doc(algorithm="emts10")))
        assert (emts10.mu, emts10.lam) == (10, 100)
        assert emts10.journal_interval < base.journal_interval
        assert base.generations == 5
        longer = estimate_work(parse_request(make_doc(generations=50)))
        assert longer.generations == 50
        assert longer.run_us == 51 * longer.generation_us

    def test_short_runs_never_journal_long_runs_still_do(self):
        # the service-run request: FFT-39, EMTS5, 5 generations
        short = estimate_work(parse_request(make_doc()))
        assert short.journal_interval > short.generations
        # the crash suites' request: FFT-15, EMTS5, 150 generations;
        # ``mid-checkpoint:5`` needs at least five journals
        long = estimate_work(
            parse_request(make_doc(size=4, generations=150))
        )
        assert (long.generations + 1) // long.journal_interval >= 5
        # a journal costs at most 1/10 of the generations it protects
        assert (
            long.journal_interval * long.generation_us
            >= 10 * long.journal_us
        )


class TestEngineCadence:
    @pytest.fixture
    def problem(self):
        ptg = generate_fft(4, rng=7)
        cluster = by_name("chti")
        return ptg, cluster, TimeTable.build(
            _make_model("amdahl"), ptg, cluster
        )

    def test_default_journals_every_generation_and_archives(
        self, problem, tmp_path, count_journals
    ):
        ckpt = tmp_path / "run.ckpt"
        emts5(generations=6).schedule(*problem, rng=3, checkpoint_path=ckpt)
        # generations 0..6, then the completed archive of generation 6
        assert count_journals == [0, 1, 2, 3, 4, 5, 6, 6]
        assert load_checkpoint(ckpt).completed

    def test_interval_journals_on_cadence_and_not_on_completion(
        self, problem, tmp_path, count_journals
    ):
        ckpt = tmp_path / "run.ckpt"
        emts5(generations=12).schedule(
            *problem, rng=3, checkpoint_path=ckpt, checkpoint_interval=4
        )
        # g + 1 a multiple of 4, and generations left after g
        assert count_journals == [3, 7, 11]
        assert load_checkpoint(ckpt).generation == 11
        assert not load_checkpoint(ckpt).completed

    def test_interval_changes_no_answer_and_resumes_bit_identically(
        self, problem, tmp_path
    ):
        reference = emts5(generations=12).schedule(*problem, rng=3)
        ckpt = tmp_path / "run.ckpt"
        cadenced = emts5(generations=12).schedule(
            *problem, rng=3, checkpoint_path=ckpt, checkpoint_interval=5
        )
        assert cadenced.makespan == reference.makespan
        assert trajectory(cadenced) == trajectory(reference)
        # generation 9's journal is the last before completion
        assert load_checkpoint(ckpt).generation == 9
        resumed = emts5(generations=12).schedule(
            *problem, rng=3, resume_from=ckpt
        )
        assert resumed.makespan == reference.makespan
        assert schedule_to_dict(resumed.schedule) == schedule_to_dict(
            reference.schedule
        )
        assert resumed.log.total_evaluations == (
            reference.log.total_evaluations
        )

    def test_early_stop_journals_its_stop_point(
        self, problem, tmp_path, count_journals
    ):
        stop = threading.Event()
        stop.set()  # stop after the seeded population
        ckpt = tmp_path / "run.ckpt"
        result = emts5(generations=40).schedule(
            *problem,
            rng=3,
            checkpoint_path=ckpt,
            checkpoint_interval=25,
            stop_event=stop,
        )
        assert result.interrupted
        assert count_journals == [0]
        assert not load_checkpoint(ckpt).completed

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "4"])
    def test_bad_interval_is_a_configuration_error(self, problem, bad):
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            emts5(generations=1).schedule(
                *problem, rng=3, checkpoint_interval=bad
            )


class TestServiceJournals:
    def test_short_request_writes_no_checkpoint(
        self, tmp_path, count_journals
    ):
        spool = tmp_path / "spool"
        with live_service(workers=1, spool=str(spool)) as (_, client):
            doc = client.schedule(make_doc(seed=17), timeout=60)
        assert count_journals == []
        assert list((spool / "checkpoints").iterdir()) == []
        assert doc["job"]["served_from"] == "run"
        offline = in_process(8, 17)
        assert doc["result"]["makespan"] == offline.makespan
        assert doc["result"]["evaluations"] == offline.log.total_evaluations
        assert doc["result"]["schedule"] == schedule_to_dict(
            offline.schedule
        )

    def test_long_request_journals_on_its_cadence(
        self, tmp_path, count_journals
    ):
        doc = make_doc(size=4, seed=17, generations=40)
        interval = estimate_work(parse_request(doc)).journal_interval
        with live_service(workers=1, spool=str(tmp_path / "spool")) as (
            _,
            client,
        ):
            reply = client.schedule(doc, timeout=60)
        assert count_journals == list(
            range(interval - 1, 40, interval)
        )
        assert reply["result"]["makespan"] == in_process(4, 17, 40).makespan
        # the job finished: its journals went with it
        assert list((tmp_path / "spool" / "checkpoints").iterdir()) == []

    def test_per_generation_journal_spool_resumes_bit_identically(
        self, tmp_path
    ):
        """An interrupted job and its per-generation checkpoint, left by
        a daemon that journaled every generation, finish unchanged."""
        spool = tmp_path / "spool"
        shutil.copytree(JOURNALED_SPOOL, spool)
        (record,) = (spool / "jobs").glob("*.json")
        job_doc = json.loads(record.read_text())
        assert job_doc["state"] == "interrupted"
        assert not load_checkpoint(
            spool / "checkpoints" / record.name
        ).completed
        with live_service(workers=1, spool=str(spool)) as (_, client):
            done = client.wait_for(job_doc["id"], timeout=120)
        assert done["job"]["state"] == "done"
        assert done["job"]["served_from"] == "resume"
        request = job_doc["request"]
        offline = in_process(4, request["seed"], request["generations"])
        assert done["result"]["makespan"] == offline.makespan
        assert done["result"]["evaluations"] == (
            offline.log.total_evaluations
        )
        assert done["result"]["schedule"] == schedule_to_dict(
            offline.schedule
        )
        assert not (spool / "checkpoints" / record.name).exists()

    @pytest.mark.parametrize("rejection", [False, True])
    def test_per_generation_journal_checkpoint_resumes_in_process(
        self, rejection, tmp_path
    ):
        """The daemon's journal resumes in process to the offline
        answer, with its ignored ``use_rejection`` key as written or
        flipped to what runs of ``emts5(use_rejection=True)`` wrote."""
        (record,) = (JOURNALED_SPOOL / "jobs").glob("*.json")
        request = json.loads(record.read_text())["request"]
        doc = json.loads(
            (JOURNALED_SPOOL / "checkpoints" / record.name).read_text()
        )
        assert doc["config"]["use_rejection"] is False
        doc["config"]["use_rejection"] = rejection
        path = tmp_path / record.name
        path.write_text(json.dumps(doc))
        ptg = generate_fft(4, rng=7)
        cluster = by_name("chti")
        table = TimeTable.build(_make_model("amdahl"), ptg, cluster)
        resumed = emts5(generations=request["generations"]).schedule(
            ptg, cluster, table, rng=request["seed"], resume_from=path
        )
        offline = in_process(4, request["seed"], request["generations"])
        assert resumed.makespan == offline.makespan
        assert resumed.allocation.tolist() == offline.allocation.tolist()
        assert resumed.evaluations == offline.evaluations


# ----------------------------------------------------------------------
class TestReplyOnCompletion:
    def test_metrics_count_the_job_before_its_reply(self):
        """No sleep between the reply and the scrape: the job's own
        counters and latency are merged before the worker wakes it."""
        with live_service(workers=2) as (service, client):
            for i in range(1, 7):
                reply = client.submit(make_doc(size=4, seed=200 + i), wait=30)
                assert reply["job"]["state"] == "done"
                text = client.metrics_text()
                assert f"repro_service_jobs_completed {i}\n" in text
                assert f"repro_service_request_seconds_count {i}\n" in text
                assert service.stats()["jobs"] == i

    def test_done_callback_runs_once_whenever_added(self):
        job = Job(id="job-x", request=parse_request(make_doc(size=2)))
        calls = []
        job.add_done_callback(lambda: calls.append("early"))

        def removed():
            calls.append("removed")

        job.add_done_callback(removed)
        job.remove_done_callback(removed)
        job.set_done()
        job.set_done()
        job.add_done_callback(lambda: calls.append("late"))
        assert calls == ["early", "late"]

    def test_wait_times_out_to_202(self):
        with live_service(workers=1) as (service, client):
            service.pool.stop()  # nobody takes the job
            reply = client.submit(make_doc(size=4, seed=3), wait=0.05)
            assert reply["job"]["state"] == "queued"
            nan = client._request(
                "POST", "/v1/jobs?wait=nan", make_doc(size=4, seed=4)
            )
            assert nan[0] == 202


# ----------------------------------------------------------------------
def finished_in_memory(store):
    return [j for j in store.jobs() if j.state in ("done", "failed")]


class TestFinishedJobBound:
    def test_daemon_keeps_at_most_the_bound(self):
        assert DEFAULT_FINISHED_JOBS == 256
        with live_service(workers=2) as (service, client):
            first = client.schedule(make_doc(size=2, seed=0, generations=1))
            for seed in range(1, 300):
                client.schedule(make_doc(size=2, seed=seed, generations=1))
            assert len(finished_in_memory(service.store)) == 256
            status, _, listing = client._request("GET", "/v1/jobs")
            assert status == 200 and len(listing["jobs"]) == 256
            # no spool: the oldest job left memory and is gone
            status, _, doc = client._request(
                "GET", f"/v1/jobs/{first['job']['id']}"
            )
            assert status == 404
            assert doc["error"]["code"] == "unknown-job"

    def test_live_jobs_are_never_evicted(self):
        store = JobStore(max_finished=2)
        live = store.create(parse_request(make_doc(size=2, seed=0)))
        for seed in range(1, 6):
            job = store.create(parse_request(make_doc(size=2, seed=seed)))
            job.state = "done"
            store.finish(job)
        assert store.get(live.id) is live
        assert len(finished_in_memory(store)) == 2

    def test_finish_and_callbacks_under_thread_contention(self):
        """Every callback runs exactly once and the bound holds while
        threads finish jobs and add callbacks to them concurrently."""
        store = JobStore(max_finished=8)
        request = parse_request(make_doc(size=2))
        jobs = [store.create(request, key="k") for _ in range(400)]
        ran = collections.Counter()
        ran_lock = threading.Lock()

        def count(job_id):
            with ran_lock:
                ran[job_id] += 1

        def waiter(offset):
            for job in jobs[offset::2]:
                job.add_done_callback(functools.partial(count, job.id))

        def finisher(offset):
            for job in jobs[offset::2]:
                job.state = "done"
                store.finish(job)

        threads = [
            threading.Thread(target=target, args=(offset,))
            for target in (waiter, finisher)
            for offset in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert ran == {job.id: 1 for job in jobs}
        assert len(finished_in_memory(store)) == 8
        assert set(store._finished) <= {job.id for job in store.jobs()}

    def test_spooled_job_reads_back_and_dedupes(self, tmp_path):
        keyed = make_doc(size=4, seed=1, idempotency_key="idem-evicted")
        with live_service(
            workers=1, spool=str(tmp_path / "spool"), result_cache_size=2
        ) as (service, client):
            first = client.schedule(keyed, timeout=60)
            job_id = first["job"]["id"]
            for seed in range(2, 6):
                client.schedule(make_doc(size=4, seed=seed), timeout=60)
            assert job_id not in {j.id for j in service.store.jobs()}
            assert client.get_job(job_id) == first
            again = client.submit(keyed)
            assert again["deduplicated"] is True
            assert again["job"]["id"] == job_id
            assert again["result"] == first["result"]

    def test_unspooled_job_reruns_to_the_same_bits(self):
        keyed = make_doc(size=4, seed=1, idempotency_key="idem-gone")
        with live_service(workers=1, result_cache_size=2) as (_, client):
            first = client.schedule(keyed, timeout=60)
            for seed in range(2, 6):
                client.schedule(make_doc(size=4, seed=seed), timeout=60)
            again = client.schedule(keyed, timeout=60)
        assert again["job"]["id"] != first["job"]["id"]
        assert again["job"]["served_from"] == "run"
        assert again["result"] == first["result"]

    def test_recover_adopts_at_most_the_bound(self, tmp_path):
        spool = tmp_path / "spool"
        template = Job(
            id="job-template",
            request=parse_request(make_doc(size=2)),
            state="done",
            result={"makespan": 1.0},
            submitted_at=1.0,
        ).to_dict()
        writer = JobStore(spool)
        for i in range(2000):
            template.update(id=f"job-{i:012x}", finished_at=1000.0 + i)
            template["request"]["idempotency_key"] = f"idem-{i}"
            writer.persist(Job.from_dict(template))
        queued = template | {"id": "job-queued", "state": "queued"}
        writer.persist(Job.from_dict(queued))
        writer.close()

        store = JobStore(spool)
        pending = store.recover()
        assert [j.id for j in pending] == ["job-queued"]
        kept = finished_in_memory(store)
        assert len(kept) == DEFAULT_FINISHED_JOBS
        assert {j.id for j in kept} == {
            f"job-{i:012x}" for i in range(2000 - 256, 2000)
        }
        assert store.quarantined == []
        # an older record answers from disk, by id and by key
        oldest = store.get(f"job-{0:012x}")
        assert oldest is not None and oldest.state == "done"
        assert oldest.result == {"makespan": 1.0}
        assert store.find_idempotent("idem-0").id == f"job-{0:012x}"

    @pytest.mark.parametrize(
        "job_id", ["../jobs/job-1", "..", "a/b", "job-1.json", ""]
    )
    def test_get_reads_only_job_shaped_names(self, tmp_path, job_id):
        store = JobStore(tmp_path / "spool")
        (tmp_path / "spool" / "jobs.json").write_text("{}")
        assert store.get(job_id) is None
