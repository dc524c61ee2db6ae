"""The spool log: framing, recovery of a damaged log, compaction and the
import of a spool in the old one-file-per-job layout.

* Fuzz: a log of a few jobs, cut at any offset, with any byte flipped,
  any range zeroed or garbage appended, never makes
  :meth:`JobStore.recover` raise or hang.  Each job comes back in the
  state of its latest intact frame or not at all, every byte outside an
  intact frame lands in ``spool/quarantine/``, and a second recovery
  quarantines nothing new.
* A record that parses as JSON but is not a job raises only
  :class:`ServiceError` and its frame is quarantined.
* Compaction keeps the log within twice its live bytes, and a finished
  job that left memory still reads back by offset.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.graph import ptg_to_dict
from repro.service.jobs import (
    _COMPACT_MIN_BYTES,
    FINISHED_STATES,
    Job,
    JobStore,
    encode_frame,
    scan_log,
)
from repro.service.protocol import parse_request
from repro.testing import quarantined_files, spool_job_ids
from repro.workloads import generate_fft


def make_doc(seed=1, key=None):
    doc = {
        "ptg": ptg_to_dict(generate_fft(2, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
        "generations": 1,
    }
    if key is not None:
        doc["idempotency_key"] = key
    return doc


def step(store, job, state):
    job.state = state
    if state in FINISHED_STATES:
        job.finished_at = 2000.0 + len(job.id)
        job.result = {"makespan": 1.0}
    store.persist(job)


@functools.lru_cache(maxsize=None)
def sample_log() -> bytes:
    """Three jobs: done (3 frames), running (2 frames), queued (1)."""
    with tempfile.TemporaryDirectory() as tmp:
        store = JobStore(Path(tmp) / "spool")
        jobs = [
            store.create(parse_request(make_doc(seed=i, key=f"idem-{i}")))
            for i in range(3)
        ]
        step(store, jobs[0], "running")
        step(store, jobs[1], "running")
        step(store, jobs[0], "done")
        store.close()
        return (Path(tmp) / "spool" / "jobs.log").read_bytes()


def recovered_states(spool: Path) -> tuple[dict[str, str], list[Path]]:
    store = JobStore(spool)
    store.recover()
    states = {job.id: job.state for job in store.jobs()}
    store.close()
    return states, store.quarantined


mutation = st.one_of(
    st.tuples(st.just("cut"), st.floats(0, 1)),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
    st.tuples(st.just("zero"), st.floats(0, 1), st.integers(1, 64)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
)


def mutate(data: bytes, op: tuple) -> bytes:
    kind = op[0]
    if kind == "append":
        return data + op[1]
    if not data:
        return data
    at = min(int(op[1] * len(data)), len(data) - 1)
    if kind == "cut":
        return data[:at]
    buf = bytearray(data)
    if kind == "flip":
        buf[at] ^= op[2]
    else:
        buf[at : at + op[2]] = bytes(len(buf[at : at + op[2]]))
    return bytes(buf)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(mutation, min_size=1, max_size=3))
def test_recover_survives_any_damage(ops):
    original = sample_log()
    frames, bad = scan_log(original)
    assert bad == [] and len(frames) == 6
    data = original
    for op in ops:
        data = mutate(data, op)
    # a frame is intact iff its bytes are still where they were written
    intact = [
        f
        for f in frames
        if data[f.offset : f.end] == original[f.offset : f.end]
    ]
    expected: dict[str, str] = {}
    for frame in intact:
        # no checkpoint exists, so a running job comes back queued
        expected[frame.job_id] = (
            "queued" if frame.state == "running" else frame.state
        )
    covered = bytearray(len(data))
    for frame in intact:
        covered[frame.offset : frame.end] = b"\x01" * (
            frame.end - frame.offset
        )
    runs = []
    for pos, flag in enumerate(covered):
        if flag:
            continue
        if runs and runs[-1][1] == pos:
            runs[-1][1] = pos + 1
        else:
            runs.append([pos, pos + 1])

    with tempfile.TemporaryDirectory() as tmp:
        spool = Path(tmp) / "spool"
        spool.mkdir()
        (spool / "jobs.log").write_bytes(data)
        states, quarantined = recovered_states(spool)
        assert states == expected
        parked = sorted(
            (int(p.name.split(".")[2]), p.read_bytes()) for p in quarantined
        )
        assert parked == [(a, data[a:b]) for a, b in runs]
        assert quarantined_files(spool) == sorted(quarantined)
        again, requarantined = recovered_states(spool)
        assert again == expected
        assert requarantined == []


# -- malformed records ------------------------------------------------------
def valid_record() -> dict:
    job = Job(
        id="job-000000000001",
        request=parse_request(make_doc(key="idem-x")),
        submitted_at=1.0,
    )
    return json.loads(job.to_json())


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(
        ["id", "state", "request", "submitted_at", "attempts", "ptg",
         "seed", "platform", "generations"]
    ),
    value=json_value,
    drop=st.booleans(),
)
def test_malformed_record_raises_only_service_error(field, value, drop):
    doc = valid_record()
    target = doc if field in doc else doc["request"]
    if drop:
        target.pop(field, None)
    else:
        target[field] = value
    try:
        Job.from_dict(doc)
    except ServiceError:
        pass


@pytest.mark.parametrize("doc", [[], "job", 3, None, {}])
def test_a_record_that_is_no_object_raises_service_error(doc):
    with pytest.raises(ServiceError):
        Job.from_dict(doc)


@pytest.mark.parametrize(
    "record",
    [b"[1, 2]", b'{"id": "job-000000000009"}', b'{"id": 5, "state": 1}',
     b"not json"],
)
def test_malformed_frame_is_quarantined(tmp_path, record):
    spool = tmp_path / "spool"
    store = JobStore(spool)
    healthy = store.create(parse_request(make_doc(key="idem-ok")))
    head, body = encode_frame(
        ["job-000000000009", "queued", None, None], record
    )
    with open(spool / "jobs.log", "ab") as log:
        log.write(head + body)
    store.close()
    states, quarantined = recovered_states(spool)
    assert states == {healthy.id: "queued"}
    assert [p.read_bytes() for p in quarantined] == [head + body]
    assert recovered_states(spool) == (states, [])


# -- compaction ------------------------------------------------------------
def test_compaction_bounds_the_log_and_keeps_every_job(tmp_path):
    spool = tmp_path / "spool"
    store = JobStore(spool, max_finished=1)
    request = parse_request(make_doc(key=None))
    jobs = []
    for _ in range(600):
        job = store.create(request, key="k")
        step(store, job, "running")
        step(store, job, "done")
        store.finish(job)
        jobs.append(job)
        size = (spool / "jobs.log").stat().st_size
        live = sum(s for _, s in store._frames.values())
        assert size == store._log_size
        assert size <= max(_COMPACT_MIN_BYTES, 2 * live)
    assert size < _COMPACT_MIN_BYTES * 2  # it compacted
    # a finished job that left memory reads back from its frame
    assert jobs[0].id not in {j.id for j in store.jobs()}
    assert store.get(jobs[0].id).state == "done"
    store.close()
    assert spool_job_ids(spool) == {job.id for job in jobs}
    states, quarantined = recovered_states(spool)
    assert quarantined == []
    # the newest 256 finished jobs come back into memory
    assert states == {job.id: "done" for job in jobs[-256:]}


# -- a spool in the old one-file-per-job layout ------------------------------
def test_legacy_spool_is_imported_once(tmp_path):
    spool = tmp_path / "spool"
    (spool / "jobs").mkdir(parents=True)
    request = parse_request(make_doc(key="idem-legacy"))
    records = {}
    for n, state in enumerate(("queued", "running", "done")):
        job = Job(
            id=f"job-00000000000{n}",
            request=request if state == "done" else parse_request(
                make_doc(seed=n)
            ),
            state=state,
            submitted_at=10.0 + n,
        )
        if state == "done":
            job.finished_at = 20.0
            job.result = {"makespan": 3.0}
        records[state] = job
        (spool / "jobs" / f"{job.id}.json").write_text(job.to_json())
    (spool / "jobs" / "job-00000000000a.json.tmp").write_text('{"id": ')

    store = JobStore(spool)
    pending = store.recover()
    assert [(j.id, j.state) for j in pending] == [
        (records["queued"].id, "queued"),
        (records["running"].id, "queued"),
    ]
    done = store.get(records["done"].id)
    assert done == records["done"] and done.result == {"makespan": 3.0}
    assert store.find_idempotent("idem-legacy").id == records["done"].id
    assert [p.name for p in store.quarantined] == [
        "job-00000000000a.json.tmp"
    ]
    assert not (spool / "jobs").exists()
    store.close()
    assert spool_job_ids(spool) == {job.id for job in records.values()}
    states, quarantined = recovered_states(spool)
    assert quarantined == []
    assert states == {
        records["queued"].id: "queued",
        records["running"].id: "queued",
        records["done"].id: "done",
    }
