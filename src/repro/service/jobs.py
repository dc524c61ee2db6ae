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
benches).

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
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..exceptions import ServiceError
from ..util.crash import crash_point
from .protocol import ScheduleRequest, parse_request, result_key

__all__ = ["Job", "JobStore", "JOB_STATES", "DEFAULT_IDEMPOTENCY_ENTRIES"]

#: Bound of the idempotency key -> job id LRU index.  Sized for hours
#: of retry windows, not forever: a key evicted here can in the worst
#: case duplicate a *finished* job (a fresh run of a deterministic
#: request — same bits, wasted work), never lose one.
DEFAULT_IDEMPOTENCY_ENTRIES = 4096

JOB_STATES = ("queued", "running", "interrupted", "done", "failed")


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

    def __post_init__(self) -> None:
        if not self.key:
            self.key = result_key(self.request)

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

    def to_dict(self) -> dict[str, Any]:
        """Full persistent record (spool file content)."""
        doc = self.summary()
        doc["request"] = {
            "ptg": self.request.ptg_doc,
            "platform": self.request.platform,
            "model": self.request.model,
            "algorithm": self.request.algorithm,
            "seed": self.request.seed,
            "generations": self.request.generations,
            "max_wall_time": self.request.max_wall_time,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "idempotency_key": self.request.idempotency_key,
        }
        if self.request.trace_id and self.request.trace_span:
            # the trace context survives the spool: a restarted daemon
            # re-parents the recovered run under the original request
            doc["request"]["trace"] = {
                "trace_id": self.request.trace_id,
                "span_id": self.request.trace_span,
            }
        doc["result"] = self.result
        doc["error"] = self.error
        return doc

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
        if job.state in ("done", "failed"):
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
    ) -> None:
        if idempotency_entries < 1:
            raise ServiceError(
                f"idempotency_entries must be >= 1, "
                f"got {idempotency_entries}",
                code="bad-config",
                status=500,
            )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
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
        """Register a new job; ``key`` is its result key if known."""
        job = Job(
            id=new_job_id(),
            request=request,
            submitted_at=time.time(),
            key=key,
        )
        with self._lock:
            self._jobs[job.id] = job
            self._register_idempotency_locked(job)
        self.persist(job)
        return job

    def adopt(self, job: Job) -> None:
        """Register a job recovered from the spool."""
        with self._lock:
            self._jobs[job.id] = job
            self._register_idempotency_locked(job)

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    # -- idempotent submission -----------------------------------------
    def _register_idempotency_locked(self, job: Job) -> None:
        key = job.request.idempotency_key
        if key is None:
            return
        self._idempotency[key] = job.id
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
            return self._jobs.get(job_id)

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
        tmp.write_text(
            json.dumps(job.to_dict(), sort_keys=True), encoding="utf-8"
        )
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
        for path in sorted(jobs_dir.glob("*.json")):
            try:
                job = Job.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except Exception:
                self._quarantine(path)
                continue
            self.adopt(job)
            if job.state in ("done", "failed"):
                continue
            ckpt = self.checkpoint_path(job)
            if job.state == "running":
                job.state = (
                    "interrupted"
                    if ckpt is not None and ckpt.exists()
                    else "queued"
                )
                self.persist(job)
            pending.append(job)
        return pending
