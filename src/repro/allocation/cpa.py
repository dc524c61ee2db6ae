"""CPA — Critical Path and Area-based allocation
(Radulescu & van Gemund, ICPP 2001; paper Section II-B).

CPA starts from one processor per task and repeatedly gives one more
processor to a critical-path task, trading critical-path length ``T_CP``
against average area ``T_A``:

.. code-block:: text

    s(v) = 1 for all v
    while T_CP > T_A:
        C  = tasks on the critical path that can still grow
        v* = argmax_{v in C} [ T(v, s(v)) - T(v, s(v)+1) ]
        if gain(v*) <= 0: stop          # non-monotone guard, see below
        s(v*) += 1

**Non-monotone guard.**  Classic CPA assumes ``T(v, p)`` non-increasing
in ``p``, so the best gain is always >= 0 and the loop runs until
``T_CP <= T_A``.  Under the paper's Model 2 a larger allocation can be
*slower*; growing an allocation at negative gain would raise both ``T_CP``
and ``T_A`` and can cycle.  We therefore stop as soon as no critical-path
task improves by growing — which reproduces the paper's observation that
under Model 2 "allocations will grow up to a size of 4-8 processors before
the allocation procedure stops" (Section V-B).

**One loop for the family.**  :class:`CpaAllocator` is the growth loop of
CPA, HCPA, MCPA, MCPA2 and BiCPA's virtual cluster sizes.  The variants
differ only in data: a per-task cap vector (MCPA2's work shares, a
virtual size), MCPA's per-level budget flag, and the divisor ``k`` of
the stop test ``T_CP <= area / k``.

**Native path.**  When the compiled library of
:mod:`repro.mapping._cscheduler` loads, the whole loop runs in one C
call (``cpa_allocate``) over the PTG's cached CSR arrays, on per-call
buffers — safe from concurrent threads, and no
:class:`~repro.mapping.ScheduleKernel` is built.  A growth step then
costs 0.3–1.4 µs on the paper's graphs, against 17–79 µs for the Python
loop (``results/seeding_speedup.txt``).
The Python loop below is the bit-identity oracle and the fallback when
there is no compiler or ``REPRO_NO_CKERNEL=1`` is set: it performs the
same floating-point operations in the same order, over the list sweeps
of :mod:`repro.graph.analysis` (the library's one Python copy of each),
and ``tests/test_allocation_cpa.py`` pins the two engines together.

Complexity: ``O(V (V + E) P)`` — each of at most ``V P`` growth steps
recomputes bottom levels in ``O(V + E)`` — matching the bound the paper
cites for (H)CPA's allocation procedure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..exceptions import AllocationError
from ..graph import (
    PTG,
    bottom_levels,
    csr_adjacency,
    precedence_levels,
    top_levels,
)
from ..graph.analysis import bottom_level_list, top_level_list
from ..mapping import _cscheduler
from ..timemodels import TimeTable
from .base import AllocationHeuristic

__all__ = ["CpaAllocator", "critical_path_mask"]

_EPS = 1e-12


def critical_path_mask(
    ptg: PTG, times: np.ndarray
) -> tuple[np.ndarray, float]:
    """Boolean mask of tasks lying on *some* critical path, plus ``T_CP``.

    A task is on a critical path iff ``tl(v) + T(v) + (bl(v) - T(v)) ==
    T_CP`` i.e. ``tl(v) + bl(v) == T_CP`` (bottom level includes the
    task's own time).  Using the mask instead of a single concrete path
    lets the allocator consider every critical task — important when
    several parallel branches are equally critical.
    """
    bl = bottom_levels(ptg, times)
    t_cp = float(bl.max())
    on_cp = top_levels(ptg, times) + bl >= t_cp * (1.0 - 1e-12) - _EPS
    return on_cp, t_cp


class _Loop(NamedTuple):
    """The inputs of one run of the growth loop, shared by both engines."""

    ptg: PTG
    table: np.ndarray  # C-contiguous (V, P) execution times
    caps: np.ndarray  # int64 per-task ceilings, each <= P
    levels: np.ndarray | None  # precedence levels under MCPA's budget
    area: float  # sum_v T(v, 1), summed by numpy
    divisor: int  # k of the stop test T_CP <= area / k
    allow_negative_gain: bool
    limit: int  # growth steps at most


def _grow_python(loop: _Loop) -> tuple[np.ndarray, int]:
    """The growth loop in Python: the oracle and the fallback engine."""
    V, P = loop.table.shape
    ptg = loop.ptg
    rows = loop.table.tolist()
    caps = loop.caps.tolist()
    alloc = [1] * V
    t = [row[0] for row in rows]
    area = loop.area
    level = None
    if loop.levels is not None:
        level = loop.levels.tolist()
        level_sum = np.bincount(loop.levels).tolist()  # all alloc == 1
    steps = 0
    while steps < loop.limit:
        bl = bottom_level_list(ptg, t)
        t_cp = max(bl)
        if t_cp <= area / loop.divisor:
            break
        tl = top_level_list(ptg, t)
        # first maximum gain among critical tasks that may still grow
        threshold = t_cp * (1.0 - 1e-12) - _EPS
        best = -1
        best_gain = 0.0
        for v in range(V):
            s = alloc[v]
            if s >= caps[v] or not tl[v] + bl[v] >= threshold:
                continue
            if level is not None and level_sum[level[v]] >= P:
                continue
            gain = t[v] - rows[v][s]  # T(v, s) - T(v, s+1)
            if best < 0 or gain > best_gain:
                best = v
                best_gain = gain
        if best < 0 or (not loop.allow_negative_gain and best_gain <= _EPS):
            break
        # update area incrementally: area += (s+1) T(v,s+1) - s T(v,s)
        s = alloc[best]
        t_new = rows[best][s]
        area += (s + 1) * t_new - s * t[best]
        alloc[best] = s + 1
        t[best] = t_new
        if level is not None:
            level_sum[level[best]] += 1
        steps += 1
    return np.array(alloc, dtype=np.int64), steps


def _grow_native(loop: _Loop, ffi, lib) -> tuple[np.ndarray, int]:
    """The growth loop as one ``cpa_allocate`` call."""
    V, P = loop.table.shape
    csr = csr_adjacency(loop.ptg)
    alloc = np.empty(V, dtype=np.int64)

    def ptr(arr: np.ndarray):
        return ffi.cast("const int64_t *", arr.ctypes.data)

    levels = loop.levels
    steps = lib.cpa_allocate(
        V,
        P,
        ffi.cast("const double *", loop.table.ctypes.data),
        ptr(loop.ptg.topological_order),
        ptr(csr.succ_indptr),
        ptr(csr.succ_indices),
        ptr(csr.pred_indptr),
        ptr(csr.pred_indices),
        ptr(loop.caps),
        ffi.NULL if levels is None else ptr(levels),
        0 if levels is None else int(levels.max()) + 1,
        loop.area,
        loop.divisor,
        loop.allow_negative_gain,
        loop.limit,
        ffi.cast("int64_t *", alloc.ctypes.data),
    )
    if steps < 0:
        raise MemoryError("cpa_allocate could not allocate its buffers")
    return alloc, int(steps)


class CpaAllocator(AllocationHeuristic):
    """Critical Path and Area-based allocation.

    Parameters
    ----------
    allow_negative_gain:
        Disable the non-monotone guard and run the textbook loop (only
        safe with monotone models; used by tests to document why the
        guard exists).
    max_iterations:
        Hard safety bound on growth steps; ``None`` derives ``V * k``
        for the area divisor ``k`` (``V * P`` for CPA itself).
    """

    name = "cpa"

    #: MCPA's per-level budget: a task may grow only while the sum of
    #: its precedence level's allocations stays below ``P``
    level_budget = False

    def __init__(
        self,
        allow_negative_gain: bool = False,
        max_iterations: int | None = None,
    ) -> None:
        self.allow_negative_gain = bool(allow_negative_gain)
        self.max_iterations = max_iterations

    def _area_divisor(self, table: TimeTable) -> int:
        """``k`` of the stop test ``T_CP <= area / k``: the machine size."""
        return table.num_processors

    def _caps(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        """Per-task allocation ceilings: every task may reach ``k``."""
        return np.full(
            ptg.num_tasks, self._area_divisor(table), dtype=np.int64
        )

    def _loop(self, ptg: PTG, table: TimeTable) -> _Loop:
        V = ptg.num_tasks
        P = table.num_processors
        if table.array.shape != (V, P):
            raise AllocationError(
                f"time table has shape {table.array.shape}, PTG "
                f"{ptg.name!r} needs ({V}, {P})"
            )
        divisor = int(self._area_divisor(table))
        limit = (
            self.max_iterations
            if self.max_iterations is not None
            else V * divisor
        )
        return _Loop(
            ptg=ptg,
            table=np.ascontiguousarray(table.array, dtype=np.float64),
            caps=np.minimum(self._caps(ptg, table), P).astype(np.int64),
            levels=precedence_levels(ptg) if self.level_budget else None,
            # = sum alloc * times at alloc == 1
            area=float(table.array[:, 0].copy().sum()),
            divisor=divisor,
            allow_negative_gain=self.allow_negative_gain,
            # no run can take more than V * P steps: every step grows
            # one task by one processor
            limit=min(int(limit), V * P),
        )

    def grow(self, ptg: PTG, table: TimeTable) -> tuple[np.ndarray, int]:
        """The allocation and the number of growth steps it took."""
        loop = self._loop(ptg, table)
        ffi, lib = _cscheduler.load()
        if lib is None:
            return _grow_python(loop)
        return _grow_native(loop, ffi, lib)

    def allocate(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        return self.grow(ptg, table)[0]
