"""Kill-restart acceptance suite: the no-loss / no-duplicate contract.

For every named crash point the daemon is armed via ``REPRO_CRASH_POINT``,
driven until the injected ``os._exit`` lands (verified by the dedicated
exit code), restarted on the same spool, and then held to the contract:

* **no acked job is lost** — anything the client got a 202 for reaches
  ``done`` after the restart;
* **no duplicate execution** — a keyed resubmit lands on the surviving
  job (one job id per idempotency key in the spool log, ever);
* **bit-identical results** — the recovered result equals one
  uninterrupted offline run of the same request;
* **corrupt debris is quarantined**, never fatal.

These run the real ``repro-emts serve`` daemon as a subprocess (the
in-process drain tests cannot model ``kill -9``).
"""

from __future__ import annotations

import functools
import json
import time

import pytest

from repro.core import emts5
from repro.graph import ptg_to_dict
from repro.platform import by_name
from repro.service import (
    RetryingServiceClient,
    RetryPolicy,
    ServiceClient,
)
from repro.exceptions import ServiceError
from repro.mapping import schedule_to_dict
from repro.obs import read_flight_dump
from repro.testing import (
    ServiceDaemon,
    quarantined_files,
    spool_ids_per_key,
    spool_job_ids,
)
from repro.timemodels import TimeTable
from repro.util import CRASH_EXIT_CODE
from repro.workloads import generate_fft

SEED = 31
#: long enough that run-time crash points land mid-run with room for
#: several per-generation checkpoints; cheap on fft(4)
LONG_GENERATIONS = 150
#: submit-time crash points never start the run; keep the replay tiny
SHORT_GENERATIONS = 3


def make_doc(generations, key):
    return {
        "ptg": ptg_to_dict(generate_fft(4, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": SEED,
        "generations": generations,
        "idempotency_key": key,
    }


@functools.lru_cache(maxsize=None)
def offline_reference(generations):
    """One undisturbed run of the request — the bit-identity oracle."""
    from repro.cli import _make_model

    ptg = generate_fft(4, rng=7)
    cluster = by_name("chti")
    table = TimeTable.build(_make_model("amdahl"), ptg, cluster)
    result = emts5(generations=generations).schedule(
        ptg, cluster, table, rng=SEED
    )
    return {
        "makespan": result.makespan,
        "schedule": json.dumps(
            schedule_to_dict(result.schedule), sort_keys=True
        ),
    }


def assert_contract(spool, final_doc, key, generations):
    """The recovery contract, asserted after the restarted run."""
    assert final_doc["job"]["state"] == "done"
    # no duplicate execution: the spool log holds one job id per key
    with_key = spool_ids_per_key(spool)[key]
    assert with_key == {final_doc["job"]["id"]}, (
        f"expected exactly one job for key {key!r}, got {with_key}"
    )
    # bit-identical to the undisturbed offline run
    reference = offline_reference(generations)
    result = final_doc["result"]
    assert result["makespan"] == reference["makespan"]
    assert (
        json.dumps(result["schedule"], sort_keys=True)
        == reference["schedule"]
    )


def assert_flight_dump(spool, point):
    """Every induced crash leaves a parseable flight-recorder dump."""
    dumps = sorted((spool / "flight").glob(f"flight-{point}-*.json"))
    assert dumps, (
        f"no flight-recorder dump for crash point {point!r} under "
        f"{spool / 'flight'}"
    )
    for dump in dumps:
        doc = read_flight_dump(dump)  # raises if malformed
        assert doc["reason"] == f"crash-point:{point}"
        assert doc["events"], "flight dump recorded no breadcrumbs"


def recovered_schedule(spool, doc):
    """Restart on the spool and drive the keyed request to done."""
    with ServiceDaemon(spool=spool) as daemon:
        client = RetryingServiceClient(
            port=daemon.port,
            policy=RetryPolicy(base=0.02, cap=0.2, seed=3),
        )
        return client.schedule(doc, timeout=300)


def wait_running(client, job_id, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.get_job(job_id)["job"]["state"] == "running":
                return
        except ServiceError:
            return  # daemon already died at the crash point
        time.sleep(0.01)
    pytest.fail(f"job {job_id} never started running")


# ----------------------------------------------------------------------
SUBMIT_TIME_POINTS = (
    "pre-spool-write",   # record not yet durable: job may vanish
    "mid-spool-write",   # torn frame at the log's tail: quarantined
    "post-spool-write",  # durable but never acked
    "post-enqueue",      # durable + queued but never acked
)


@pytest.mark.parametrize("point", SUBMIT_TIME_POINTS)
def test_submit_time_crash(tmp_path, point):
    """Daemon dies inside the submit path; the ack never arrives.

    The client cannot know whether the POST landed — exactly the case
    the idempotency key exists for.  After restart, a keyed retry must
    end with ONE completed job, whichever side of the crash the record
    ended up on.
    """
    spool = tmp_path / "spool"
    key = f"idem-{point}"
    doc = make_doc(SHORT_GENERATIONS, key)

    daemon = ServiceDaemon(spool=spool, crash_point=point)
    daemon.start()
    client = ServiceClient(port=daemon.port, timeout=10)
    try:
        client.submit(doc)
        pytest.fail("submit should have died with the daemon")
    except ServiceError:
        pass
    assert daemon.wait(timeout=30) == CRASH_EXIT_CODE
    assert_flight_dump(spool, point)

    durable = spool_job_ids(spool)
    if point in ("post-spool-write", "post-enqueue"):
        assert len(durable) == 1, "record should have been durable"
    else:
        assert durable == set(), "record should not exist yet"

    final = recovered_schedule(spool, doc)
    assert_contract(spool, final, key, SHORT_GENERATIONS)
    if durable:
        # the retry was answered by the job the crash left behind
        assert final["job"]["id"] in durable
    if point == "mid-spool-write":
        # the torn frame was parked, not deleted and not fatal
        assert any(
            p.name.startswith("jobs.log.") for p in quarantined_files(spool)
        )


RUN_TIME_POINTS = (
    # five clean checkpoints, then die mid-journal: restart resumes
    # from generation 4's checkpoint
    "mid-checkpoint:5",
    # the run finished but its result never became durable: restart
    # must re-derive it (resume from the last checkpoint)
    "pre-result-persist",
)


@pytest.mark.parametrize("spec", RUN_TIME_POINTS)
def test_run_time_crash_recovers_acked_job(tmp_path, spec):
    """An ACKED job must survive a mid-run kill and finish correctly."""
    spool = tmp_path / "spool"
    key = f"idem-{spec.split(':')[0]}"
    doc = make_doc(LONG_GENERATIONS, key)

    daemon = ServiceDaemon(spool=spool, crash_point=spec)
    daemon.start()
    client = ServiceClient(port=daemon.port, timeout=10)
    acked = client.submit(doc)  # 202 before the run begins
    acked_id = acked["job"]["id"]
    assert daemon.wait(timeout=120) == CRASH_EXIT_CODE
    assert_flight_dump(spool, spec.split(":")[0])
    assert acked_id in spool_job_ids(spool), "acked job lost"

    final = recovered_schedule(spool, doc)
    assert final["job"]["id"] == acked_id, "acked job lost on restart"
    assert_contract(spool, final, key, LONG_GENERATIONS)


def test_mid_drain_crash_recovers_acked_job(tmp_path):
    """SIGKILL landing mid-graceful-shutdown still loses nothing."""
    spool = tmp_path / "spool"
    key = "idem-mid-drain"
    doc = make_doc(LONG_GENERATIONS, key)

    daemon = ServiceDaemon(spool=spool, crash_point="mid-drain")
    daemon.start()
    client = ServiceClient(port=daemon.port, timeout=10)
    acked_id = client.submit(doc)["job"]["id"]
    wait_running(client, acked_id)
    daemon.terminate()  # SIGTERM starts the drain; the point detonates
    assert daemon.returncode == CRASH_EXIT_CODE
    assert_flight_dump(spool, "mid-drain")
    assert acked_id in spool_job_ids(spool), "acked job lost"

    final = recovered_schedule(spool, doc)
    assert final["job"]["id"] == acked_id
    assert_contract(spool, final, key, LONG_GENERATIONS)


def test_plain_sigkill_mid_run(tmp_path):
    """No crash point at all — a raw ``kill -9`` mid-run recovers too."""
    spool = tmp_path / "spool"
    key = "idem-sigkill"
    doc = make_doc(LONG_GENERATIONS, key)

    daemon = ServiceDaemon(spool=spool)
    daemon.start()
    client = ServiceClient(port=daemon.port, timeout=10)
    acked_id = client.submit(doc)["job"]["id"]
    wait_running(client, acked_id)
    daemon.kill()

    final = recovered_schedule(spool, doc)
    assert final["job"]["id"] == acked_id
    assert_contract(spool, final, key, LONG_GENERATIONS)
