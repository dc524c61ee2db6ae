"""Job lifecycle and crash-only spool persistence.

A job moves through ``queued -> running -> done`` (or ``failed``), with
one extra state — ``interrupted`` — for jobs stopped at a generation
boundary by a drain: their EMTS checkpoint (written by the run itself,
PR 3 machinery) lives next to the job record, and a restarted daemon
re-enqueues them and resumes bit-identically.

Persistence is a spool directory of one JSON file per job, written
atomically (temp file + ``os.replace``), so a crash at any instant
leaves either the old or the new record — never a torn one.  Passing
``spool=None`` runs the store fully in memory (tests, ephemeral
benches).  A record is one JSON document with unspecified key order:
the request's PTG and the job's result go in as the text they were
encoded to once (:meth:`Job.to_json`), not encoded again per write.

Two durability mechanisms live here beyond the basic spool:

* **Idempotency index** — every job whose request carried an
  ``idempotency_key`` is registered in an LRU-bounded key → job map.
  A retried submit after an ambiguous failure (connection dropped
  after the POST landed) finds the original job instead of enqueuing a
  twin.  The index is derived state: it is rebuilt from the spool
  records on :meth:`JobStore.recover`, so dedupe survives a daemon
  restart without its own persistence (and therefore cannot itself be
  torn by a crash).

* **Quarantine** — :meth:`JobStore.recover` moves unreadable spool
  records (zero-byte, truncated, tampered) and orphaned ``.json.tmp``
  partial-rename debris into ``spool/quarantine/`` instead of raising:
  one corrupt record must never poison recovery of the healthy ones.
  The daemon surfaces the count as ``service.spool.quarantined``.

Memory holds every live job but only the newest ``max_finished``
finished ones, while serving and after :meth:`JobStore.recover`.  With
a spool, :meth:`JobStore.get` and idempotent dedupe read an older
finished job's record back from disk; without one it is gone.

Neither the spool record nor the run checkpoint is fsynced: both
survive the death of the process (the kernel holds the written pages),
not the loss of power.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

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

#: what a job id read from a URL must look like before it names a file
_SAFE_JOB_ID = re.compile(r"[A-Za-z0-9_-]{1,64}")

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
        if job.state in FINISHED_STATES:
            job.done_event.set()
        return job


def new_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:12]}"


class JobStore:
    """Registry of jobs plus (optionally) their on-disk spool records."""

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
        #: spool records quarantined by the last :meth:`recover` call
        self.quarantined: list[Path] = []
        self.spool = Path(spool) if spool is not None else None
        if self.spool is not None:
            (self.spool / "jobs").mkdir(parents=True, exist_ok=True)
            (self.spool / "checkpoints").mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def checkpoint_path(self, job: Job) -> Path | None:
        """Where the job's EMTS run journals its resumable checkpoint."""
        if self.spool is None:
            return None
        return self.spool / "checkpoints" / f"{job.id}.json"

    def _record_path(self, job_id: str) -> Path:
        assert self.spool is not None
        return self.spool / "jobs" / f"{job_id}.json"

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
        """The job, from memory or else (finished, spooled) from disk."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            job = self._load(job_id)
        return job

    def _load(self, job_id: str) -> Job | None:
        """Read a job that left memory back from its spool record."""
        if self.spool is None or not _SAFE_JOB_ID.fullmatch(job_id):
            return None
        try:
            text = self._record_path(job_id).read_text(encoding="utf-8")
            return Job.from_dict(json.loads(text))
        except Exception:  # missing, or unreadable: recover() judges
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
        """Atomically write the job's spool record (no-op in-memory)."""
        if self.spool is None:
            return
        crash_point("pre-spool-write")
        path = self._record_path(job.id)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(job.to_json(), encoding="utf-8")
        crash_point("mid-spool-write")
        os.replace(tmp, path)
        crash_point("post-spool-write")

    def forget_checkpoint(self, job: Job) -> None:
        """Delete the job's checkpoint once it finished cleanly."""
        path = self.checkpoint_path(job)
        if path is not None:
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def _quarantine(self, path: Path) -> None:
        """Move an unusable spool file aside, keeping it for forensics."""
        assert self.spool is not None
        qdir = self.spool / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        n = 1
        while target.exists():  # same-named record from an older crash
            target = qdir / f"{path.name}.{n}"
            n += 1
        try:
            os.replace(path, target)
        except OSError:
            return  # vanished (or unmovable): nothing left to poison
        self.quarantined.append(target)
        # park the flight ring next to the debris: the record can no
        # longer say what happened to it, but the process's last moves
        # leading up to the quarantine can
        try:
            from ..obs.flight import flight_recorder

            flight_recorder().record(
                "spool", "quarantined record", file=path.name
            )
            flight_recorder().dump(
                target.with_name(target.name + ".flight.json"),
                reason=f"quarantine:{path.name}",
            )
        except Exception:  # pragma: no cover - forensics must not kill
            pass

    def recover(self) -> list[Job]:
        """Load every unfinished job from the spool, oldest first.

        ``running`` records (daemon died mid-run without a clean drain)
        come back as ``queued``/``interrupted`` depending on whether
        their run left a resumable checkpoint behind.

        Of the finished records only the newest ``max_finished`` (by
        finish time) become :class:`Job` objects in memory; the rest
        register just their idempotency key, and :meth:`get` reads
        them back on demand.

        A torn record cannot exist (atomic writes), so anything
        unreadable here — zero-byte, truncated, tampered, or an
        orphaned ``.json.tmp`` from a crash between temp-write and
        rename — is moved to ``spool/quarantine/`` (never deleted,
        never fatal) and reported via :attr:`quarantined`.
        """
        if self.spool is None:
            return []
        self.quarantined = []
        jobs_dir = self.spool / "jobs"
        # partial-rename debris: the atomic-write temp never made it to
        # its final name, so its content is by definition unacked state
        for tmp in sorted(jobs_dir.glob("*.tmp")):
            self._quarantine(tmp)
        pending: list[Job] = []
        #: min-heap of the newest finished records: (finished, path, doc)
        newest: list[tuple[float, Path, dict]] = []
        for path in sorted(jobs_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if doc.get("state") in FINISHED_STATES:
                    finished = float(
                        doc.get("finished_at") or doc["submitted_at"]
                    )
                    key = doc["request"].get("idempotency_key")
                    with self._lock:
                        self._register_idempotency_locked(
                            key, str(doc["id"])
                        )
                    heapq.heappush(newest, (finished, path, doc))
                    if len(newest) > self.max_finished:
                        heapq.heappop(newest)
                    continue
                job = Job.from_dict(doc)
            except Exception:
                self._quarantine(path)
                continue
            self.adopt(job)
            ckpt = self.checkpoint_path(job)
            if job.state == "running":
                job.state = (
                    "interrupted"
                    if ckpt is not None and ckpt.exists()
                    else "queued"
                )
                self.persist(job)
            pending.append(job)
        for _, path, doc in sorted(newest, key=lambda entry: entry[0]):
            try:
                job = Job.from_dict(doc)
            except Exception:
                self._quarantine(path)
                continue
            self.adopt(job)
        return pending
