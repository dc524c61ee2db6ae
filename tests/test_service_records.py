"""A request is encoded once: its identities, records and replies.

* ``result_key`` and ``problem_digest`` hash text built around the
  request's once-encoded PTG, and must equal the sha256 of the
  canonical JSON of the full documents (a hypothesis property).
* A served request encodes its PTG document once and its result once.
* ``POST ?wait=``, ``GET`` from memory and ``GET`` read back from the
  spool reply with the same bytes, ``json.dumps(doc) + "\\n"``.
* A spool frame's record is one JSON document that reads back to an
  equal :class:`~repro.service.jobs.Job` in every state.
* A submission answered from the result cache writes one frame.
* A 429 refusal leaves no job behind, in memory or on the spool.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import threading
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.graph import ptg_to_dict
from repro.service import SchedulingService
from repro.service.jobs import JOB_STATES, Job, JobStore
from repro.service.protocol import (
    KNOWN_ALGORITHMS,
    KNOWN_MODELS,
    KNOWN_PLATFORMS,
    parse_request,
    problem_digest,
    request_trace_context,
    result_key,
)
from repro.testing import spool_frames, spool_record
from repro.workloads import (
    DaggenParams,
    generate_daggen,
    generate_fft,
    generate_strassen,
)

JOURNALED_SPOOL = (
    Path(__file__).parent / "data" / "per_generation_journal_spool"
)


@lru_cache(maxsize=None)
def graph_doc(kind: str, seed: int) -> str:
    """A generated PTG document, as JSON text (callers decode a copy)."""
    if kind == "strassen":
        ptg = generate_strassen(rng=seed)
    elif kind == "daggen":
        ptg = generate_daggen(DaggenParams(12), rng=seed)
    else:
        ptg = generate_fft({"fft3": 2, "fft15": 4, "fft39": 8}[kind], rng=seed)
    return json.dumps(ptg_to_dict(ptg))


def make_doc(size=4, seed=5, **extra):
    doc = {
        "ptg": ptg_to_dict(generate_fft(size, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
        "generations": 2,
    }
    doc.update(extra)
    return doc


def sha256_of_canonical(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- identities ----------------------------------------------------------
hex_ids = st.text("0123456789abcdef", min_size=1, max_size=32)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def ptg_docs(draw):
    """A generated graph, or any JSON object marked as a PTG."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(("fft3", "fft15", "fft39", "strassen", "daggen")))
        return json.loads(graph_doc(kind, draw(st.integers(0, 5))))
    doc = draw(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
    doc["format"] = "repro-ptg"
    return doc


@st.composite
def request_docs(draw):
    doc = {"ptg": draw(ptg_docs())}
    optional = {
        "platform": st.sampled_from(KNOWN_PLATFORMS + ("GRELON",)),
        "model": st.sampled_from(KNOWN_MODELS),
        "algorithm": st.sampled_from(KNOWN_ALGORITHMS),
        "seed": st.none() | st.integers(0, 2**63),
        "generations": st.none() | st.integers(1, 10_000),
        "max_wall_time": st.none()
        | st.integers(1, 10**6)
        | st.floats(1e-6, 1e6)
        | st.just(float("inf")),
        "tenant": st.text(min_size=1, max_size=64),
        "priority": st.integers(0, 9),
        "idempotency_key": st.none() | st.text(min_size=1, max_size=128),
        "trace": st.builds(
            lambda t, s: {"trace_id": t, "span_id": s}, hex_ids, hex_ids
        ),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=request_docs())
def test_identities_hash_the_canonical_documents(doc):
    request = parse_request(doc)
    assert result_key(request) == sha256_of_canonical(request.semantic_doc())
    assert problem_digest(request) == sha256_of_canonical(
        {
            "ptg": request.ptg_doc,
            "platform": request.platform,
            "model": request.model,
        }
    )
    if "trace" not in doc:
        # a server-minted trace id is derived from the same key
        twin = parse_request({**doc, "tenant": "other", "priority": 3})
        assert request_trace_context(request) == request_trace_context(twin)


# -- encode counts -------------------------------------------------------
@contextmanager
def live_service(**kwargs):
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
            if service.tracer is not None:
                service.tracer.close()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=15), "service did not start"
    try:
        yield service
    finally:
        service.request_drain()
        thread.join(timeout=60)


def call(port: int, method: str, path: str, body: bytes | None = None):
    """One raw request: ``(status, body bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def _contains(obj, found) -> bool:
    if isinstance(obj, dict):
        return found(obj) or any(_contains(v, found) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_contains(v, found) for v in obj)
    return False


@pytest.fixture
def count_encodes(monkeypatch):
    """Count ``json.dumps`` calls that encode a PTG or a result document."""
    counts = {"ptg": 0, "result": 0}
    real = json.dumps

    def is_ptg(doc):
        return doc.get("format") == "repro-ptg"

    def is_result(doc):
        return "problem_fingerprint" in doc

    def counting(obj, *args, **kwargs):
        if _contains(obj, is_ptg):
            counts["ptg"] += 1
        if _contains(obj, is_result):
            counts["result"] += 1
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    return counts


@pytest.mark.parametrize("traced", [False, True])
def test_served_request_encodes_ptg_and_result_once(
    tmp_path, count_encodes, traced
):
    bodies = [
        json.dumps(make_doc(seed=1)).encode(),
        json.dumps(make_doc(seed=2)).encode(),  # warm: same problem
        json.dumps(make_doc(seed=1)).encode(),  # result-cache hit
    ]
    served_from = []
    with live_service(
        workers=1,
        spool=str(tmp_path / "spool"),
        trace_dir=str(tmp_path / "traces") if traced else None,
    ) as service:
        count_encodes.update(ptg=0, result=0)
        for body in bodies:
            status, reply = call(
                service.bound_port, "POST", "/v1/jobs?wait=60", body
            )
            assert status == 200
            served_from.append(json.loads(reply)["job"]["served_from"])
        counts = dict(count_encodes)
    assert served_from == ["run", "run", "result-cache"]
    # one PTG encode per request (at parse), one result encode per run
    assert counts == {"ptg": 3, "result": 2}


# -- reply bytes ---------------------------------------------------------
def test_replies_are_the_same_bytes_from_memory_and_spool(tmp_path):
    with live_service(
        workers=1, spool=str(tmp_path / "spool"), result_cache_size=1
    ) as service:
        port = service.bound_port
        status, posted = call(
            port,
            "POST",
            "/v1/jobs?wait=60",
            json.dumps(make_doc(seed=3)).encode(),
        )
        assert status == 200
        doc = json.loads(posted)
        job_id = doc["job"]["id"]
        assert doc["job"]["state"] == "done"
        _, from_memory = call(port, "GET", f"/v1/jobs/{job_id}")
        # a second finished job pushes the first out of memory
        call(
            port,
            "POST",
            "/v1/jobs?wait=60",
            json.dumps(make_doc(seed=4)).encode(),
        )
        assert service.store._jobs.get(job_id) is None
        _, from_spool = call(port, "GET", f"/v1/jobs/{job_id}")
    expected = (json.dumps(doc) + "\n").encode("utf-8")
    assert posted == expected
    assert from_memory == expected
    assert from_spool == expected


# -- records -------------------------------------------------------------
def job_in(state: str) -> Job:
    request = parse_request(
        make_doc(
            idempotency_key=f"idem-{state}",
            trace={"trace_id": "ab" * 16, "span_id": "cd" * 8},
            max_wall_time=2.5,
            tenant="t1",
            priority=4,
        )
    )
    job = Job(
        id=f"job-{state}",
        request=request,
        state=state,
        submitted_at=1000.25,
        attempts=2,
    )
    if state != "queued":
        job.started_at = 1000.5
    if state in ("done", "failed"):
        job.finished_at = 1001.125
    if state == "done":
        job.result = {"makespan": 1.5, "schedule": {"tasks": [[0, 1.0]]}}
        job.served_from = "resume"
    if state == "failed":
        job.error = {"code": "boom", "message": "it broke"}
    return job


@pytest.mark.parametrize("state", JOB_STATES)
def test_records_round_trip_in_every_state(tmp_path, state):
    job = job_in(state)
    assert json.loads(job.to_json()) == job.to_dict()
    store = JobStore(tmp_path / "spool")
    store.persist(job)
    back = Job.from_dict(spool_record(tmp_path / "spool", job.id))
    assert back == job
    assert back.key == job.key
    assert back.request.ptg_json == job.request.ptg_json


def test_committed_record_round_trips():
    (record,) = (JOURNALED_SPOOL / "jobs").glob("*.json")
    job = Job.from_dict(json.loads(record.read_text()))
    assert job.state == "interrupted"
    again = Job.from_dict(json.loads(job.to_json()))
    assert again == job
    assert again.key == job.key


# -- one record for an inline answer --------------------------------------
def test_cache_hit_writes_one_done_record(tmp_path, monkeypatch):
    service = SchedulingService(spool=str(tmp_path / "spool"), workers=1)
    doc = make_doc(seed=9)
    result = {"makespan": 2.0, "problem_fingerprint": "f"}
    service.result_cache.put(
        result_key(parse_request(doc)), (result, json.dumps(result))
    )
    written = []
    real = JobStore.persist

    def recording(store, job):
        written.append(job.state)
        return real(store, job)

    monkeypatch.setattr(JobStore, "persist", recording)
    status, deduplicated, job = service.submit(doc)
    assert (status, deduplicated) == (200, False)
    assert written == ["done"]
    assert job.done_event.is_set()
    assert len(spool_frames(tmp_path / "spool")) == 1
    record = spool_record(tmp_path / "spool", job.id)
    assert record["state"] == "done"
    assert record["served_from"] == "result-cache"
    assert record["result"] == result


# -- a 429 refusal leaves nothing behind ---------------------------------
def refuse_then_retry(service: SchedulingService) -> None:
    """Fill the queue, get a keyed 429, check no job was made."""
    status, _, filler = service.submit(make_doc(seed=20))
    assert status == 202
    with pytest.raises(ServiceError) as err:
        service.submit(make_doc(seed=21, idempotency_key="idem-429"))
    assert err.value.status == 429
    assert err.value.retry_after is not None
    assert service.metrics.counter("service.jobs.rejected").value == 1
    assert len(service.store) == 1
    assert service.store.find_idempotent("idem-429") is None
    assert service.queue.get(timeout=0) is filler


def test_429_leaves_no_job_in_memory():
    service = SchedulingService(queue_limit=1, workers=1)
    refuse_then_retry(service)
    status, deduplicated, job = service.submit(
        make_doc(seed=21, idempotency_key="idem-429")
    )
    assert (status, deduplicated) == (202, False)
    assert job.state == "queued" and job.error is None


def test_429_leaves_no_job_on_the_spool(tmp_path):
    spool = tmp_path / "spool"
    service = SchedulingService(queue_limit=1, workers=1, spool=str(spool))
    refuse_then_retry(service)
    assert len(spool_frames(spool)) == 1

    restarted = SchedulingService(queue_limit=2, workers=1, spool=str(spool))
    assert restarted.recover_spool() == 1
    assert restarted.store.find_idempotent("idem-429") is None
    status, deduplicated, job = restarted.submit(
        make_doc(seed=21, idempotency_key="idem-429")
    )
    assert (status, deduplicated) == (202, False)
    assert job.state == "queued" and job.error is None
