"""Execution-time model interface and the precomputed time table.

Every scheduling algorithm in this library — the CPA-family heuristics and
the EMTS evolutionary optimizer — only ever needs the execution time of
task ``v`` on ``p`` processors, ``T(v, p)``.  Because a PTG/platform pair
is fixed for the duration of one scheduling run while allocations are
queried millions of times inside the EA's fitness loop, we follow the
HPC-Python guidance (vectorize the hot path, precompute outside the loop)
and materialize the full ``V x P`` table once per run:

>>> import numpy as np
>>> from repro.graph import chain
>>> from repro.platform import chti
>>> from repro.timemodels import AmdahlModel, TimeTable
>>> table = TimeTable.build(AmdahlModel(), chain([4.3e9, 8.6e9]), chti())
>>> table.shape
(2, 20)
>>> float(table.time(0, 1))
1.0

A table of 100 tasks x 120 processors is under 100 KiB, so this trades a
negligible amount of memory for an O(V) fitness-side lookup via
:meth:`TimeTable.times_for`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import AllocationError, ModelError, TimeModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..graph import PTG, Task
    from ..platform import Cluster

__all__ = ["ExecutionTimeModel", "TimeTable"]


class ExecutionTimeModel(abc.ABC):
    """Predicts the execution time of a moldable task.

    Subclasses implement :meth:`time`; the default :meth:`build_table`
    loops over tasks and processor counts, but concrete models override it
    with a fully vectorized construction when possible (Amdahl and the
    synthetic model both do).
    """

    #: Short identifier used in reports and experiment records.
    name: str = "model"

    #: True when T(v, p) is guaranteed non-increasing in p.  The CPA-family
    #: heuristics were designed under this assumption; EMTS does not need it.
    monotone: bool = True

    @abc.abstractmethod
    def time(self, task: "Task", p: int, cluster: "Cluster") -> float:
        """Execution time (seconds) of ``task`` on ``p`` processors."""

    def build_table(self, ptg: "PTG", cluster: "Cluster") -> np.ndarray:
        """``(V, P)`` array with entry ``[v, p-1] = T(task v, p)``."""
        P = cluster.num_processors
        out = np.empty((ptg.num_tasks, P), dtype=np.float64)
        for v, task in enumerate(ptg.tasks):
            for p in range(1, P + 1):
                out[v, p - 1] = self.time(task, p, cluster)
        return out

    def _check_p(self, p: int, cluster: "Cluster") -> None:
        if not cluster.valid_allocation(p):
            raise ModelError(
                f"{self.name}: allocation p={p} outside "
                f"[1, {cluster.num_processors}]"
            )

    def _check_time(self, value: float, task: "Task", p: int) -> float:
        """Reject an unusable prediction before it can propagate.

        A NaN, infinite, or non-positive ``T(v, p)`` would silently
        poison every makespan computed from it; every concrete model
        funnels its :meth:`time` result through this guard.
        """
        if not np.isfinite(value) or value <= 0.0:
            raise TimeModelError(
                f"model {self.name!r} predicts T({task.name!r}, "
                f"p={p}) = {value!r}; execution times must be finite "
                "and strictly positive",
                task=task.name,
                p=p,
                model=self.name,
            )
        return float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class TimeTable:
    """Precomputed execution times for one (model, PTG, cluster) triple.

    The table is the *only* thing the allocation heuristics and the EMTS
    fitness function touch, which is what makes EMTS "independent of the
    execution time model" (paper Section III): swap the model, rebuild the
    table, and every algorithm downstream is unchanged.
    """

    __slots__ = ("ptg", "cluster", "model_name", "_table", "_kernel")

    def __init__(
        self,
        ptg: "PTG",
        cluster: "Cluster",
        table: np.ndarray,
        model_name: str = "custom",
    ) -> None:
        # a copy: the caller's array stays writable, and no view of it
        # can write into the checked table
        self._check(ptg, cluster, np.array(table, dtype=np.float64), model_name)

    def _check(
        self,
        ptg: "PTG",
        cluster: "Cluster",
        table: np.ndarray,
        model_name: str,
    ) -> None:
        """Check times this table owns, then bind them."""
        expected = (ptg.num_tasks, cluster.num_processors)
        if table.shape != expected:
            raise ModelError(
                f"time table has shape {table.shape}, expected {expected}"
            )
        bad = ~np.isfinite(table) | (table <= 0)
        if bad.any():
            v, col = (int(i) for i in np.argwhere(bad)[0])
            raise TimeModelError(
                f"model {model_name!r} produced T("
                f"{ptg.task(v).name!r}, p={col + 1}) = "
                f"{table[v, col]!r}; time-table entries must be "
                "finite and strictly positive",
                task=ptg.task(v).name,
                p=col + 1,
                model=model_name,
            )
        self._set(ptg, cluster, table, model_name)

    def _set(
        self,
        ptg: "PTG",
        cluster: "Cluster",
        table: np.ndarray,
        model_name: str,
    ) -> None:
        """Bind checked times, read-only, with no kernel yet."""
        self.ptg = ptg
        self.cluster = cluster
        self.model_name = model_name
        self._table = table
        self._table.setflags(write=False)
        # compiled scheduling kernel, built lazily by
        # repro.mapping.kernel.kernel_for and reused across every
        # fitness evaluation against this table
        self._kernel = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, model: ExecutionTimeModel, ptg: "PTG", cluster: "Cluster"
    ) -> "TimeTable":
        """Materialize the table for ``model`` on ``(ptg, cluster)``.

        The model's fresh output is checked and kept without a copy.
        """
        out = cls.__new__(cls)
        out._check(
            ptg,
            cluster,
            np.asarray(model.build_table(ptg, cluster), dtype=np.float64),
            model.name,
        )
        return out

    def cut(
        self,
        ptg: "PTG",
        cluster: "Cluster",
        rows: np.ndarray,
        model_name: str,
    ) -> "TimeTable":
        """The table of a sub-instance: ``T(rows[i], p)`` for task ``i``
        of ``ptg`` (one task per row) and ``p`` up to ``cluster``'s
        processor count (at most this table's).

        Its entries are this table's, checked when it was built, so
        they are not checked again (an online frontier is cut on every
        reschedule).
        """
        out = TimeTable.__new__(TimeTable)
        out._set(
            ptg,
            cluster,
            self._table[rows, : cluster.num_processors],
            model_name,
        )
        return out

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(V, P)``."""
        return self._table.shape

    @property
    def num_tasks(self) -> int:
        """Number of tasks ``V``."""
        return self._table.shape[0]

    @property
    def num_processors(self) -> int:
        """Number of processors ``P``."""
        return self._table.shape[1]

    @property
    def array(self) -> np.ndarray:
        """The raw read-only ``(V, P)`` array."""
        return self._table

    def time(self, v: int, p: int) -> float:
        """``T(v, p)`` for a single task/allocation pair."""
        if not (1 <= p <= self.num_processors):
            raise AllocationError(
                f"allocation p={p} outside [1, {self.num_processors}]"
            )
        return float(self._table[v, p - 1])

    def times_for(self, alloc: np.ndarray) -> np.ndarray:
        """Vectorized ``T(v, alloc[v])`` for a full allocation vector.

        This is the innermost operation of the EA fitness function.
        ``alloc`` must contain values in ``[1, P]``.
        """
        alloc = np.asarray(alloc)
        return self._table[np.arange(self.num_tasks), alloc - 1]

    def gains(self, alloc: np.ndarray) -> np.ndarray:
        """Per-task benefit of one more processor.

        ``gains[v] = T(v, alloc[v]) - T(v, alloc[v]+1)``; tasks already at
        ``P`` get ``-inf`` (cannot grow).  Used by the CPA-family
        allocation loops.  Under a non-monotone model entries may be
        negative — that is exactly the situation the paper studies.
        """
        alloc = np.asarray(alloc)
        idx = np.arange(self.num_tasks)
        cur = self._table[idx, alloc - 1]
        grown = np.minimum(alloc, self.num_processors - 1)
        nxt = self._table[idx, grown]
        out = cur - nxt
        out[alloc >= self.num_processors] = -np.inf
        return out

    def work_area(self, alloc: np.ndarray) -> float:
        """Total processor-time area ``sum_v alloc[v] * T(v, alloc[v])``."""
        alloc = np.asarray(alloc, dtype=np.float64)
        return float(np.sum(alloc * self.times_for(alloc.astype(np.int64))))

    def average_area(self, alloc: np.ndarray) -> float:
        """``T_A = work_area / P`` — CPA's average-area bound."""
        return self.work_area(alloc) / self.num_processors

    def is_monotone(self) -> bool:
        """Check (empirically, on this table) that T is non-increasing."""
        return bool(np.all(np.diff(self._table, axis=1) <= 1e-12))

    def best_allocation(self, v: int) -> int:
        """The processor count minimizing ``T(v, .)`` (ties: smallest p)."""
        return int(np.argmin(self._table[v])) + 1

    # a pickle or a deep copy carries the times, which numpy hands back
    # writable: they are frozen again on arrival, and the kernel, a
    # cache, is rebuilt from them by kernel_for at first use
    def __getstate__(self) -> dict:
        return {
            "ptg": self.ptg,
            "cluster": self.cluster,
            "table": self._table,
            "model_name": self.model_name,
        }

    def __setstate__(self, state: dict) -> None:
        self._set(**state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeTable(model={self.model_name!r}, ptg={self.ptg.name!r}, "
            f"cluster={self.cluster.name!r}, shape={self.shape})"
        )
