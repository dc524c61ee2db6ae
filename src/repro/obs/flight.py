"""Crash flight recorder: a bounded in-memory ring of recent events.

Tracing answers "what did the request do"; the flight recorder answers
"what was the *process* doing right before it died".  Server and
workers :func:`record` cheap breadcrumbs (submission outcomes, job
state transitions, checkpoint publishes, drain progress) into one
process-wide ring of bounded size — recording is a lock, a dict, and a
deque append, safe on any path including the evaluation loop's edges.

The ring becomes useful exactly when things go wrong, so it is dumped
atomically (temp file + ``os.replace``) at the two places PR 9 made
failure observable:

* next to every quarantined spool file (:mod:`repro.service.jobs`),
  so the debris carries its own context; and
* on armed crash-point exits, via :func:`arm_crash_dump` registering a
  :func:`repro.util.crash.register_crash_hook` — the kill-restart
  suite asserts a parseable dump exists for every induced crash.

Dumps are plain JSON:  ``{"format": "repro-flight", "v": 1, "reason",
"pid", "dumped_at", "events": [...]}`` with events oldest-first, each
``{"seq", "ts", "thread", "category", "message", "data"}``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

__all__ = [
    "FLIGHT_FORMAT",
    "FLIGHT_VERSION",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "arm_crash_dump",
    "flight_recorder",
    "read_flight_dump",
    "record",
    "reset_flight_recorder",
]

FLIGHT_FORMAT = "repro-flight"
FLIGHT_VERSION = 1

#: Ring capacity: enough to hold the last few hundred job transitions
#: without ever mattering for memory (entries are small dicts).
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """A thread-safe bounded ring of breadcrumb events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0

    def record(
        self, category: str, message: str, **data: Any
    ) -> None:
        """Append one breadcrumb (oldest entries fall off the ring)."""
        entry = {
            "seq": 0,  # patched under the lock
            "ts": time.time(),
            "thread": threading.current_thread().name,
            "category": category,
            "message": message,
        }
        if data:
            entry["data"] = data
        with self._lock:
            self._seq += 1
            entry["seq"] = self._seq
            self._ring.append(entry)

    def snapshot(self) -> list[dict[str, Any]]:
        """The ring's current contents, oldest first."""
        with self._lock:
            return [dict(e) for e in self._ring]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def dump(self, path: str | Path, reason: str) -> Path:
        """Write the ring to ``path`` atomically and return the path.

        Used on crash paths, so it must not assume a healthy process:
        any serialization oddball is stringified rather than raised.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "format": FLIGHT_FORMAT,
            "v": FLIGHT_VERSION,
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "events": self.snapshot(),
        }
        text = json.dumps(doc, sort_keys=True, default=str) + "\n"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# one recorder per process: server and worker threads share it, which
# is the point — the dump interleaves everyone's last moves.
_recorder = FlightRecorder()
_armed_lock = threading.Lock()
_armed_dirs: list[Path] = []


def flight_recorder() -> FlightRecorder:
    """The process-wide recorder."""
    return _recorder


def record(category: str, message: str, **data: Any) -> None:
    """Record a breadcrumb on the process-wide ring."""
    _recorder.record(category, message, **data)


def reset_flight_recorder() -> None:
    """Clear the ring and disarm crash dumps (test isolation)."""
    _recorder.clear()
    with _armed_lock:
        _armed_dirs.clear()


def _crash_dump_hook(point: str) -> None:
    """Dump the ring for every armed directory; never raises."""
    with _armed_lock:
        targets = list(_armed_dirs)
    for directory in targets:
        try:
            _recorder.dump(
                directory / f"flight-{point}-{os.getpid()}.json",
                reason=f"crash-point:{point}",
            )
        except Exception:  # pragma: no cover - crash path must not die
            pass


def arm_crash_dump(directory: str | Path) -> None:
    """Dump the ring into ``directory`` when a crash point detonates.

    Idempotent per directory.  Registration happens once per process;
    the hook runs *before* ``os._exit`` so the dump is the last write
    the dying process makes.
    """
    from ..util.crash import register_crash_hook

    directory = Path(directory)
    with _armed_lock:
        if directory in _armed_dirs:
            return
        first = not _armed_dirs
        _armed_dirs.append(directory)
    if first:
        register_crash_hook(_crash_dump_hook)


def read_flight_dump(path: str | Path) -> dict[str, Any]:
    """Parse and sanity-check one dump file.

    Raises ``ValueError`` on anything that is not a well-formed flight
    dump — the recovery suite uses this as its "exists and parses"
    assertion.
    """
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("format") != FLIGHT_FORMAT:
        raise ValueError(
            f"{path}: not a flight dump (format={doc.get('format')!r})"
        )
    if doc.get("v") != FLIGHT_VERSION:
        raise ValueError(
            f"{path}: unsupported flight dump version {doc.get('v')!r}"
        )
    events = doc.get("events")
    if not isinstance(events, list):
        raise ValueError(f"{path}: events must be a list")
    seqs = [e.get("seq") for e in events]
    if any(not isinstance(s, int) for s in seqs):
        raise ValueError(f"{path}: every event needs an integer seq")
    if seqs != sorted(seqs):
        raise ValueError(f"{path}: events out of sequence order")
    return doc
