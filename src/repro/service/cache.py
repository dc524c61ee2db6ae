"""The service's two cache tiers.

Warm tier (per worker, no locking)
    :class:`WarmCache` maps :func:`~repro.service.protocol.problem_digest`
    to a :class:`PreparedProblem`: the parsed PTG, the built
    :class:`~repro.timemodels.TimeTable`, the compiled scheduling-kernel
    binding (built once per table via ``kernel_for``) and the problem's
    fingerprint digest.  A request on a known problem starts evolving at
    once; every genome it submits is scored by the kernel.

Result tier (shared, locked)
    :class:`ResultCache` maps :func:`~repro.service.protocol.result_key`
    to the finished deterministic ``result`` document and its JSON text,
    encoded once when the run finished.  An exact repeat request is
    answered with that text, without touching the queue or a worker.

Both tiers are bounded LRUs with hit/miss/eviction accounting.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from ..core import fingerprint_digest, problem_fingerprint
from ..graph import ptg_from_dict
from ..mapping.kernel import kernel_for
from ..platform import by_name
from ..timemodels import TimeTable
from .protocol import ScheduleRequest, problem_digest

__all__ = [
    "PreparedProblem",
    "prepare_problem",
    "WarmCache",
    "ResultCache",
    "CacheStats",
]

DEFAULT_WARM_PROBLEMS = 32
DEFAULT_RESULT_ENTRIES = 256


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class PreparedProblem:
    """Everything reusable across requests for one problem digest."""

    digest: str
    ptg: Any
    cluster: Any
    table: TimeTable
    build_seconds: float
    #: ``fingerprint_digest(problem_fingerprint(ptg, table))``, the
    #: ``problem_fingerprint`` field of every result on this problem
    fingerprint: str = ""
    runs: int = 0


def prepare_problem(request: ScheduleRequest) -> PreparedProblem:
    """Cold path: parse, build the table and warm the kernel binding."""
    # imported here to avoid a module cycle (cli -> service -> cli)
    from ..cli import _make_model

    t0 = time.perf_counter()
    ptg = ptg_from_dict(request.ptg_doc)
    cluster = by_name(request.platform)
    model = _make_model(request.model)
    table = TimeTable.build(model, ptg, cluster)
    # bind (and if necessary compile) the native kernel now, so request
    # latency never pays for it again on this problem
    kernel_for(table)
    return PreparedProblem(
        digest=problem_digest(request),
        ptg=ptg,
        cluster=cluster,
        table=table,
        build_seconds=time.perf_counter() - t0,
        fingerprint=fingerprint_digest(problem_fingerprint(ptg, table)),
    )


class WarmCache:
    """Per-worker LRU of :class:`PreparedProblem` (thread-confined)."""

    def __init__(self, max_problems: int = DEFAULT_WARM_PROBLEMS) -> None:
        if max_problems < 1:
            raise ValueError(
                f"WarmCache needs max_problems >= 1, got {max_problems}"
            )
        self.max_problems = int(max_problems)
        self.stats = CacheStats()
        self._problems: OrderedDict[str, PreparedProblem] = OrderedDict()

    def __len__(self) -> int:
        return len(self._problems)

    def get_or_prepare(self, request: ScheduleRequest) -> PreparedProblem:
        digest = problem_digest(request)
        prepared = self._problems.get(digest)
        if prepared is not None:
            self.stats.hits += 1
            self._problems.move_to_end(digest)
            return prepared
        self.stats.misses += 1
        prepared = prepare_problem(request)
        self._problems[digest] = prepared
        while len(self._problems) > self.max_problems:
            self._problems.popitem(last=False)
            self.stats.evictions += 1
        return prepared


class ResultCache:
    """Shared LRU mapping result keys to finished results.

    The service stores ``(result document, its JSON text)`` pairs; the
    cache itself does not look inside an entry.  Thread-safe: the event
    loop reads it on every submission and worker threads write finished
    results into it.  Entries are treated as immutable — callers must
    not mutate what ``get`` returns.
    """

    def __init__(self, max_entries: int = DEFAULT_RESULT_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(
                f"ResultCache needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Any | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry: Any) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            doc = self.stats.snapshot()
            doc["entries"] = len(self._entries)
            return doc
