"""Job lifecycle and crash-only spool persistence.

A job moves through ``queued -> running -> done`` (or ``failed``), with
one extra state — ``interrupted`` — for jobs stopped at a generation
boundary by a drain: their EMTS checkpoint (written by the run itself)
lives in ``spool/checkpoints/<id>.json``, and a restarted daemon
re-enqueues them and resumes bit-identically.

Persistence is one append-only log, ``spool/jobs.log``, that the store
keeps open.  Every state change appends one frame::

    magic (4) | payload length (u32) | CRC-32 of payload (u32)
    | header length (u16) | header | record

The header is the JSON array ``[id, state, finished_at,
idempotency_key]``; the record is :meth:`Job.to_json`, so any frame
alone restores its job.  An append is two ``os.write`` calls under one
lock (no open, no rename), and an in-memory index keeps each job's
latest frame.  A crash mid-append leaves a torn frame at the tail.
Passing ``spool=None`` runs the store fully in memory (tests, ephemeral
benches).

:meth:`JobStore.recover` reads the log once and keeps each job's latest
intact frame.  Only unfinished jobs and the newest ``max_finished``
finished ones are parsed in full; the rest register their idempotency
key from the header, and :meth:`JobStore.get` reads their frame back by
offset.  Every byte outside an intact frame (a torn tail, a corrupt
frame the scan resyncs past at the next magic marker) and every frame
whose record does not make a job goes to ``spool/quarantine/``: one
bad frame never poisons the rest.  The daemon surfaces the count as
``service.spool.quarantined``.

The log is also the daemon's crash record: its intact frames, read in
order (:func:`scan_log`) before the next start compacts them, show
what each job was doing when the process died, whether by ``kill -9``,
an out-of-memory kill or a crash point.

Compaction writes the latest frames to a temp log and swaps it in with
``os.replace``; it runs at recovery and whenever superseded bytes pass
half the log, so the log stays within twice its live bytes.  A spool
left in the old one-file-per-job layout (``spool/jobs/<id>.json``) is
imported into the log once, its ``.json.tmp`` debris quarantined.

The **idempotency index** (key -> job id, LRU-bounded) lets a retried
submit after an ambiguous failure find the original job instead of
enqueuing a twin.  It is derived state, rebuilt from the frame headers
on recovery, so dedupe survives a restart without its own persistence.

Neither the log nor the run checkpoint is fsynced: both survive the
death of the process (the kernel holds the written pages), not the
loss of power.
"""

from __future__ import annotations

import heapq
import json
import mmap
import os
import re
import struct
import threading
import time
import uuid
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ..exceptions import ServiceError
from ..util.crash import crash_point
from .protocol import ScheduleRequest, json_with, parse_request, result_key

__all__ = [
    "Job",
    "JobStore",
    "JOB_STATES",
    "FINISHED_STATES",
    "DEFAULT_FINISHED_JOBS",
    "DEFAULT_IDEMPOTENCY_ENTRIES",
]

#: Bound of the idempotency key -> job id LRU index.  Sized for hours
#: of retry windows, not forever: a key evicted here can in the worst
#: case duplicate a *finished* job (a fresh run of a deterministic
#: request — same bits, wasted work), never lose one.
DEFAULT_IDEMPOTENCY_ENTRIES = 4096

#: Finished jobs a store keeps in memory (the daemon passes its
#: ``--result-cache-size``, which has the same default).
DEFAULT_FINISHED_JOBS = 256

JOB_STATES = ("queued", "running", "interrupted", "done", "failed")
FINISHED_STATES = ("done", "failed")

#: what a job id read from a frame must look like before it names a
#: checkpoint file
_SAFE_JOB_ID = re.compile(r"[A-Za-z0-9_-]{1,64}")

#: a frame starts with this marker; 0xF5 never occurs in UTF-8 text
_MAGIC = b"\xf5JL1"
#: magic, payload length, CRC-32 of the payload, header length
_PREFIX = struct.Struct("<4sIIH")
#: compaction waits until the log is at least this large ...
_COMPACT_MIN_BYTES = 1 << 20
#: ... and superseded frames are more than half of it
_COMPACT_DEAD_SHARE = 0.5

#: guards every job's done callbacks; held only for a list operation
_callbacks_lock = threading.Lock()


@dataclass
class Job:
    """One scheduling request travelling through the service."""

    id: str
    request: ScheduleRequest
    state: str = "queued"
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    served_from: str = "run"  # "run" | "result-cache" | "resume"
    attempts: int = 0
    #: ``result_key(request)``, hashed once per job: ``submit`` passes
    #: the key it already computed, a recovered record derives it here
    key: str = field(default="", compare=False)
    done_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    stop_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    _callbacks: list[Callable[[], None]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: ``(result, json.dumps(result))`` of the last encoded result
    _result_memo: tuple[Any, str] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.key:
            self.key = result_key(self.request)

    @property
    def result_json(self) -> str:
        """``json.dumps(self.result)``, encoded once per result.

        The done record, every reply and the result cache share this
        text.
        """
        memo = self._result_memo
        if memo is None or memo[0] is not self.result:
            memo = self._result_memo = (self.result, json.dumps(self.result))
        return memo[1]

    def set_result(self, result: dict[str, Any], text: str) -> None:
        """Attach a result together with its :attr:`result_json`."""
        self.result = result
        self._result_memo = (result, text)

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, when the job is done (now if it is).

        It runs on the thread that finishes the job, so it must be
        quick and must not raise.
        """
        with _callbacks_lock:
            if not self.done_event.is_set():
                self._callbacks.append(callback)
                return
        callback()

    def remove_done_callback(self, callback: Callable[[], None]) -> None:
        with _callbacks_lock:
            if callback in self._callbacks:
                self._callbacks.remove(callback)

    def set_done(self) -> None:
        """Set :attr:`done_event` and run the done callbacks."""
        with _callbacks_lock:
            self.done_event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def wait_seconds(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def total_seconds(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Small status document (job listing, poll responses)."""
        return {
            "id": self.id,
            "state": self.state,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "algorithm": self.request.algorithm,
            "seed": self.request.seed,
            "served_from": self.served_from,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def _request_fields(self) -> dict[str, Any]:
        """The record's request document, all but its PTG."""
        request = self.request
        doc = {
            "platform": request.platform,
            "model": request.model,
            "algorithm": request.algorithm,
            "seed": request.seed,
            "generations": request.generations,
            "max_wall_time": request.max_wall_time,
            "tenant": request.tenant,
            "priority": request.priority,
            "idempotency_key": request.idempotency_key,
        }
        if request.trace_id and request.trace_span:
            # the trace context survives the spool: a restarted daemon
            # re-parents the recovered run under the original request
            doc["trace"] = {
                "trace_id": request.trace_id,
                "span_id": request.trace_span,
            }
        return doc

    def to_dict(self) -> dict[str, Any]:
        """Full persistent record (spool file content)."""
        doc = self.summary()
        doc["request"] = {"ptg": self.request.ptg_doc}
        doc["request"].update(self._request_fields())
        doc["result"] = self.result
        doc["error"] = self.error
        return doc

    def to_json(self) -> str:
        """:meth:`to_dict` as one JSON document, in some key order.

        The PTG and the result are spliced in from
        :attr:`ScheduleRequest.ptg_json` and :attr:`result_json`.
        """
        doc = self.summary()
        doc["error"] = self.error
        return json_with(
            doc,
            request=json_with(
                self._request_fields(), ptg=self.request.ptg_json
            ),
            result=self.result_json,
        )

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Job":
        """The job a record describes; :class:`ServiceError` if it is
        malformed."""
        try:
            state = doc.get("state", "queued")
            if state not in JOB_STATES:
                raise ServiceError(
                    f"job record has unknown state {state!r}",
                    code="corrupt-job",
                    status=500,
                )
            job = cls(
                id=str(doc["id"]),
                request=parse_request(doc["request"]),
                state=state,
                result=doc.get("result"),
                error=doc.get("error"),
                submitted_at=float(doc.get("submitted_at", 0.0)),
                started_at=doc.get("started_at"),
                finished_at=doc.get("finished_at"),
                served_from=doc.get("served_from", "run"),
                attempts=int(doc.get("attempts", 0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed job record: {type(exc).__name__}: {exc}",
                code="corrupt-job",
                status=500,
            ) from None
        if job.state in FINISHED_STATES:
            job.done_event.set()
        return job


class Frame(NamedTuple):
    """One intact frame of a spool log: where it is and its header."""

    offset: int
    #: first byte of the record
    body: int
    end: int
    job_id: str
    state: str
    finished_at: float | None
    idempotency_key: str | None


def encode_frame(header: list, record: bytes) -> tuple[bytes, bytes]:
    """A frame as its two appends: prefix and header, then the record."""
    head = json.dumps(header).encode()
    crc = zlib.crc32(record, zlib.crc32(head))
    prefix = _PREFIX.pack(_MAGIC, len(head) + len(record), crc, len(head))
    return prefix + head, record


def _frame_at(view: memoryview, pos: int) -> Frame | None:
    """The intact frame starting at ``pos``, if one does."""
    if view[pos : pos + 4] != _MAGIC or pos + _PREFIX.size > len(view):
        return None
    _, length, crc, head_len = _PREFIX.unpack_from(view, pos)
    start = pos + _PREFIX.size
    end = start + length
    if head_len > length or end > len(view):
        return None
    if zlib.crc32(view[start:end]) != crc:
        return None
    try:
        job_id, state, finished_at, key = json.loads(
            view[start : start + head_len].tobytes()
        )
    except (TypeError, ValueError):
        return None
    if (
        not isinstance(job_id, str)
        or not _SAFE_JOB_ID.fullmatch(job_id)
        or state not in JOB_STATES
        or not isinstance(finished_at, (int, float, type(None)))
        or not isinstance(key, (str, type(None)))
    ):
        return None
    return Frame(
        pos, start + head_len, end, job_id, state, finished_at, key
    )


def scan_log(data) -> tuple[list[Frame], list[tuple[int, int]]]:
    """The intact frames of a spool log and its bad byte ranges.

    ``data`` is the log's bytes (or an mmap of them).  A position that
    holds no intact frame starts a bad range, and the scan resyncs at
    the next magic marker; both lists are in log order.
    """
    frames: list[Frame] = []
    bad: list[tuple[int, int]] = []
    bad_start = None
    pos = 0
    with memoryview(data) as view:
        size = len(view)
        while pos < size:
            frame = _frame_at(view, pos)
            if frame is None:
                if bad_start is None:
                    bad_start = pos
                pos = data.find(_MAGIC, pos + 1)
                if pos < 0:
                    pos = size
                continue
            if bad_start is not None:
                bad.append((bad_start, pos))
                bad_start = None
            frames.append(frame)
            pos = frame.end
    if bad_start is not None:
        bad.append((bad_start, size))
    return frames, bad


def new_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:12]}"


class JobStore:
    """Registry of jobs plus (optionally) their spool log."""

    def __init__(
        self,
        spool: str | Path | None = None,
        *,
        idempotency_entries: int = DEFAULT_IDEMPOTENCY_ENTRIES,
        max_finished: int = DEFAULT_FINISHED_JOBS,
    ) -> None:
        for name, value in (
            ("idempotency_entries", idempotency_entries),
            ("max_finished", max_finished),
        ):
            if value < 1:
                raise ServiceError(
                    f"{name} must be >= 1, got {value}",
                    code="bad-config",
                    status=500,
                )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        #: ids of the finished jobs held in ``_jobs``, oldest first
        self._finished: OrderedDict[str, None] = OrderedDict()
        self.max_finished = int(max_finished)
        #: idempotency key -> job id, LRU-bounded (oldest key evicted)
        self._idempotency: OrderedDict[str, str] = OrderedDict()
        self.idempotency_entries = int(idempotency_entries)
        #: quarantine files written by the last :meth:`recover` call
        self.quarantined: list[Path] = []
        self.spool = Path(spool) if spool is not None else None
        #: guards the log, its size and the frame index
        self._log_lock = threading.Lock()
        #: job id -> (offset, size) of its latest frame in the log
        self._frames: dict[str, tuple[int, int]] = {}
        self._log_size = 0
        #: bytes of frames a later frame of the same job superseded
        self._dead = 0
        self._log = None
        if self.spool is not None:
            (self.spool / "checkpoints").mkdir(parents=True, exist_ok=True)
            self._log = open(self.log_path, "a+b", buffering=0)
            self._log_size = os.fstat(self._log.fileno()).st_size
        #: the index covers the whole log, so compaction may rewrite it
        #: (a log left by another process is indexed by :meth:`recover`)
        self._indexed = self._log_size == 0

    @property
    def log_path(self) -> Path:
        assert self.spool is not None
        return self.spool / "jobs.log"

    def close(self) -> None:
        """Close the log; the store keeps serving what is in memory."""
        with self._log_lock:
            if self._log is not None:
                self._log.close()

    # ------------------------------------------------------------------
    def checkpoint_path(self, job: Job) -> Path | None:
        """Where the job's EMTS run journals its resumable checkpoint."""
        if self.spool is None:
            return None
        return self.spool / "checkpoints" / f"{job.id}.json"

    # ------------------------------------------------------------------
    def create(self, request: ScheduleRequest, key: str = "") -> Job:
        """Register a new queued job; ``key`` is its result key if known."""
        job = Job(
            id=new_job_id(),
            request=request,
            submitted_at=time.time(),
            key=key,
        )
        self.add(job)
        return job

    def add(self, job: Job) -> None:
        """Register a new job and write its first record."""
        with self._lock:
            self._jobs[job.id] = job
            self._register_idempotency_locked(
                job.request.idempotency_key, job.id
            )
        self.persist(job)

    def adopt(self, job: Job) -> None:
        """Register a job recovered from the spool."""
        with self._lock:
            self._jobs[job.id] = job
            self._register_idempotency_locked(
                job.request.idempotency_key, job.id
            )
            if job.state in FINISHED_STATES:
                self._retain_locked(job.id)

    def finish(self, job: Job) -> None:
        """The job is done or failed and its record written: wake it.

        It joins the finished jobs kept in memory; past
        ``max_finished`` the oldest of them leaves.
        """
        with self._lock:
            if job.id in self._jobs:
                self._retain_locked(job.id)
        job.set_done()

    def _retain_locked(self, job_id: str) -> None:
        self._finished[job_id] = None
        self._finished.move_to_end(job_id)
        while len(self._finished) > self.max_finished:
            old, _ = self._finished.popitem(last=False)
            self._jobs.pop(old, None)

    def get(self, job_id: str) -> Job | None:
        """The job, from memory or else (finished, spooled) from the log."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            job = self._load(job_id)
        return job

    def _load(self, job_id: str) -> Job | None:
        """Read a job that left memory back from its latest frame."""
        with self._log_lock:
            entry = self._frames.get(job_id)
            if entry is None or self._log is None or self._log.closed:
                return None
            offset, size = entry
            data = os.pread(self._log.fileno(), size, offset)
        frame = _frame_at(memoryview(data), 0)
        if frame is None:  # unreadable: recover() judges
            return None
        try:
            return Job.from_dict(json.loads(data[frame.body :]))
        except (ServiceError, ValueError):
            return None

    # -- idempotent submission -----------------------------------------
    def _register_idempotency_locked(
        self, key: str | None, job_id: str
    ) -> None:
        if key is None:
            return
        self._idempotency[key] = job_id
        self._idempotency.move_to_end(key)
        while len(self._idempotency) > self.idempotency_entries:
            self._idempotency.popitem(last=False)

    def find_idempotent(self, key: str | None) -> Job | None:
        """The job a previous submit registered under ``key``, if any.

        A hit refreshes the key's LRU position: a client actively
        retrying a submission keeps its dedupe window open.
        """
        if key is None:
            return None
        with self._lock:
            job_id = self._idempotency.get(key)
            if job_id is None:
                return None
            self._idempotency.move_to_end(key)
        return self.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda j: j.submitted_at
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # ------------------------------------------------------------------
    def persist(self, job: Job) -> None:
        """Append the job's record to the log (no-op in-memory)."""
        if self.spool is None:
            return
        crash_point("pre-spool-write")
        head, record = encode_frame(
            [job.id, job.state, job.finished_at, job.request.idempotency_key],
            job.to_json().encode(),
        )
        with self._log_lock:
            self._append(job.id, head, record)
        crash_point("post-spool-write")

    def _append(self, job_id: str, head: bytes, record: bytes) -> None:
        """Append one frame and index it (log lock held)."""
        offset = self._log_size
        try:
            _write_all(self._log, head)
            crash_point("mid-spool-write")
            _write_all(self._log, record)
        except OSError:
            # a failed append leaves a torn frame that recovery resyncs
            # past; the frames after it must still find their offsets
            self._log_size = os.fstat(self._log.fileno()).st_size
            raise
        size = len(head) + len(record)
        self._log_size = offset + size
        old = self._frames.get(job_id)
        self._frames[job_id] = (offset, size)
        if old is not None:
            self._dead += old[1]
            if self._indexed and self._log_size >= _COMPACT_MIN_BYTES:
                if self._dead > _COMPACT_DEAD_SHARE * self._log_size:
                    self._compact_locked()

    def _compact_locked(self) -> None:
        """Rewrite the log as the latest frame of every job.

        If the rewrite fails (a full disk), the log stays as it was and
        the next append past the threshold tries again.
        """
        tmp = self.spool / "jobs.log.tmp"
        fd = self._log.fileno()
        frames: dict[str, tuple[int, int]] = {}
        pos = 0
        try:
            with open(tmp, "wb") as out:
                for job_id, (offset, size) in sorted(
                    self._frames.items(), key=lambda item: item[1][0]
                ):
                    out.write(os.pread(fd, size, offset))
                    frames[job_id] = (pos, size)
                    pos += size
            os.replace(tmp, self.log_path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return
        self._log.close()
        self._log = open(self.log_path, "a+b", buffering=0)
        self._frames = frames
        self._log_size = pos
        self._dead = 0
        self._indexed = True

    def forget_checkpoint(self, job: Job) -> None:
        """Delete the job's checkpoint once it finished cleanly."""
        path = self.checkpoint_path(job)
        if path is not None:
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def _quarantine(self, name: str, put: Callable[[Path], Any]) -> None:
        """Park unusable spool bytes, keeping them for forensics.

        ``put(target)`` moves or writes them to a fresh name under
        ``spool/quarantine/``.
        """
        assert self.spool is not None
        qdir = self.spool / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / name
        n = 1
        while target.exists():  # same name from an older crash
            target = qdir / f"{name}.{n}"
            n += 1
        try:
            put(target)
        except OSError:
            return  # vanished (or unmovable): nothing left to poison
        self.quarantined.append(target)

    def _import_legacy(self) -> None:
        """Move a spool of per-job files (``spool/jobs/``) into the log.

        A ``.json.tmp`` never reached its final name, so its content is
        unacked state: it is quarantined, as is a record that is not a
        JSON job document.  Each imported file is deleted after its
        frame is written, so an interrupted import resumes.
        """
        jobs_dir = self.spool / "jobs"
        if not jobs_dir.is_dir():
            return
        for tmp in sorted(jobs_dir.glob("*.tmp")):
            self._quarantine(tmp.name, tmp.replace)
        for path in sorted(jobs_dir.glob("*.json")):
            try:
                raw = path.read_bytes()
                doc = json.loads(raw)
                header = [
                    str(doc["id"]),
                    doc.get("state", "queued"),
                    doc.get("finished_at") or doc.get("submitted_at"),
                    doc["request"].get("idempotency_key"),
                ]
                if header[1] not in JOB_STATES:
                    raise ValueError(f"unknown state {header[1]!r}")
                head, record = encode_frame(header, raw)
            except (
                AttributeError,
                KeyError,
                OSError,
                TypeError,
                ValueError,
                struct.error,
            ):
                self._quarantine(path.name, path.replace)
                continue
            with self._log_lock:
                self._append(header[0], head, record)
            path.unlink()
        try:
            jobs_dir.rmdir()
        except OSError:  # something unexpected stays for the operator
            pass

    def recover(self) -> list[Job]:
        """Load every unfinished job from the log, oldest first.

        ``running`` jobs (daemon died mid-run without a clean drain)
        come back as ``queued``/``interrupted`` depending on whether
        their run left a resumable checkpoint behind; that state gets
        one frame, the only one recovery writes.  Every other job keeps
        its state and appends nothing, so a restart that finds nothing
        running leaves the log as it was.

        Of the finished jobs only the newest ``max_finished`` (by
        finish time) become :class:`Job` objects in memory; the rest
        register just their idempotency key, and :meth:`get` reads
        them back on demand.

        Bad byte ranges and frames whose record does not make a job are
        moved to ``spool/quarantine/`` (never fatal) and reported via
        :attr:`quarantined`; the log is then compacted, or a torn tail
        truncated, so a second recovery finds nothing new.
        """
        if self.spool is None:
            return []
        self.quarantined = []
        self._import_legacy()
        (self.spool / "jobs.log.tmp").unlink(missing_ok=True)
        with self._log_lock:
            parsed = self._scan_locked()
        pending: list[Job] = []
        for job in parsed:
            self.adopt(job)
            if job.state in FINISHED_STATES:
                continue
            if job.state == "running":
                ckpt = self.checkpoint_path(job)
                job.state = "interrupted" if ckpt.exists() else "queued"
                self.persist(job)
            pending.append(job)
        pending.sort(key=lambda job: job.submitted_at)
        return pending

    def _scan_locked(self) -> list[Job]:
        """Index the log, quarantine what is bad, and parse the jobs
        kept in memory: unfinished ones first, then the newest finished
        ones, oldest first."""
        fd = self._log.fileno()
        size = os.fstat(fd).st_size
        if size == 0:
            self._frames, self._log_size, self._dead = {}, 0, 0
            self._indexed = True
            return []
        with mmap.mmap(fd, size, access=mmap.ACCESS_READ) as data:
            frames, bad = scan_log(data)
            latest: dict[str, Frame] = {}
            for frame in frames:
                latest[frame.job_id] = frame
            for start, end in bad:
                self._quarantine(
                    f"jobs.log.{start}", _writer(data[start:end])
                )
            finished = [
                f for f in latest.values() if f.state in FINISHED_STATES
            ]
            newest = heapq.nlargest(
                self.max_finished,
                finished,
                key=lambda f: (f.finished_at or 0.0, f.offset),
            )
            chosen = {f.job_id for f in newest}
            chosen.update(
                f.job_id
                for f in latest.values()
                if f.state not in FINISHED_STATES
            )
            parsed: list[Job] = []
            malformed = False
            for frame in sorted(latest.values()):
                if frame.job_id not in chosen:
                    continue
                try:
                    job = Job.from_dict(
                        json.loads(data[frame.body : frame.end])
                    )
                    if job.id != frame.job_id:
                        raise ServiceError(
                            "record and header name different jobs",
                            code="corrupt-job",
                            status=500,
                        )
                except (ServiceError, ValueError):
                    self._quarantine(
                        f"jobs.log.{frame.offset}",
                        _writer(data[frame.offset : frame.end]),
                    )
                    del latest[frame.job_id]
                    malformed = True
                    continue
                parsed.append(job)
        self._frames = {
            f.job_id: (f.offset, f.end - f.offset)
            for f in sorted(latest.values())
        }
        live = sum(length for _, length in self._frames.values())
        self._log_size = size
        self._dead = sum(f.end - f.offset for f in frames) - live
        self._indexed = True
        with self._lock:
            for frame in sorted(latest.values()):
                if frame.job_id not in chosen:
                    self._register_idempotency_locked(
                        frame.idempotency_key, frame.job_id
                    )
        parsed.sort(
            key=lambda job: (
                job.state in FINISHED_STATES, job.finished_at or 0.0
            )
        )
        tail_only = bad and bad[-1][1] == size and len(bad) == 1
        if malformed or (bad and not tail_only) or (
            self._dead > _COMPACT_DEAD_SHARE * size
        ):
            self._compact_locked()
        elif bad:  # a torn tail: cut it off
            os.ftruncate(fd, bad[-1][0])
            self._log_size = bad[-1][0]
        return parsed


def _writer(data: bytes) -> Callable[[Path], int]:
    return lambda target: target.write_bytes(data)


def _write_all(log, data: bytes) -> None:
    """Write all of ``data``; a short write is retried, so a full disk
    raises :class:`OSError`."""
    view = memoryview(data)
    while view:
        view = view[log.write(view) :]
