"""Compiled, array-based scheduling kernel (the EA's fitness engine).

The paper's complexity analysis (Section III-E) puts essentially the
whole cost of EMTS inside the mapping function: one bottom-level list
scheduling pass per offspring.  For a fixed (PTG, platform, time model)
triple the structure of that pass is *invariant across calls*, so this
module flattens it once:

* the DAG as the PTG's own int32 arrays (:attr:`repro.graph.PTG.arrays`:
  topological order, successor CSR, in-degrees), bound without a copy —
  the same arrays the native CPA-family growth loop walks;
* the execution-time model as the dense ``(V, P)`` float64 matrix of
  the :class:`~repro.timemodels.TimeTable`, flattened row-major.

Every schedule the kernel computes comes from one native loop, the
slot scheduler of :mod:`repro.mapping._cscheduler` (compiled at first
use, cffi ABI mode, cached shared library):
:meth:`ScheduleKernel.makespan_batch` scores a ``(B, V)`` block in one
call, :meth:`ScheduleKernel.makespan` scores one genome as a batch of
one, and :meth:`ScheduleKernel.build_schedule` has the same loop also
write start and finish times and processor sets.  Without a C compiler
or cffi, or with ``REPRO_NO_CKERNEL=1``, every entry point runs the
reference mapper (:func:`repro.mapping.list_scheduler._run`) instead:
the same answers, tens of times slower per genome.

The native loop is **bit-identical** to the reference mapper: the same
first-fit-by-index tie-breaking, the same epsilon, the same floating
point operations in the same order (IEEE-754 doubles, no reassociation
or fused arithmetic).  ``tests/test_mapping_kernel.py`` asserts
equality of makespans, start times and processor sets against the
reference across hundreds of randomized instances.

Build one kernel per (PTG, time table) and reuse it for every fitness
call — :func:`kernel_for` caches the kernel on the ``TimeTable`` so all
consumers (the fitness evaluator, ``makespan_of``,
``map_allocations``) share a single compiled representation.  The
kernel holds only read-only arrays and the bound library, and every
call allocates its own work space, so one kernel may be shared by any
number of threads.
"""

from __future__ import annotations

import os
from math import inf
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import AllocationError
from ..graph import PTG
from . import _cscheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..timemodels import TimeTable

__all__ = [
    "ScheduleKernel",
    "kernel_for",
    "check_allocation",
    "batch_threads",
    "abort_limits",
]


def abort_limits(
    abort_above: float | None, num_tasks: int
) -> tuple[float, float]:
    """The ``(sink, inner)`` thresholds of the rejection strategy.

    A mapper abandons a schedule once a task's start plus its bottom
    level reaches the task's threshold.  For a task without successors
    that sum is its finish time, so ``abort_above`` itself is exact.
    For any other task it adds a path's times in the reverse order of
    the schedule's own sums, and the two can round apart by up to
    ``num_tasks + 1`` ulps each; the inner threshold sits past that
    margin.  Either way an abandoned schedule's makespan provably
    reaches ``abort_above``, and every schedule that reaches it is
    abandoned by its last task at the latest.
    """
    if abort_above is None:
        return inf, inf
    return abort_above, abort_above * (1.0 + 4.0 * (num_tasks + 2) * 2.0**-52)


#: True in a process forked after its parent ran a multi-thread batch.
#: libgomp's thread team does not survive ``fork``: a child that opens
#: a parallel region on the inherited team waits for threads that no
#: longer exist, so such a child schedules its batches on one thread.
_forked_after_threads = False
_at_fork_registered = False


def _single_thread_in_child() -> None:
    global _forked_after_threads
    _forked_after_threads = True


def _mark_threads_used() -> None:
    """Make every later fork child of this process run single-threaded."""
    global _at_fork_registered
    if not _at_fork_registered:
        _at_fork_registered = True
        if hasattr(os, "register_at_fork"):  # no fork, no child to fix
            os.register_at_fork(after_in_child=_single_thread_in_child)


def batch_threads() -> int:
    """Thread count for the native batch scheduler.

    ``REPRO_CKERNEL_THREADS`` (default 1) fans batch rows across OpenMP
    threads when the library was built with ``-fopenmp``; results are
    bit-identical for any value because each row is scheduled
    independently.  Invalid or non-positive values fall back to 1, and
    so does a process forked after its parent ran a batch on more than
    one thread.
    """
    if _forked_after_threads:
        return 1
    raw = os.environ.get("REPRO_CKERNEL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return n if n >= 1 else 1


def check_allocation(alloc: np.ndarray, ptg: PTG, P: int) -> np.ndarray:
    """Validate and canonicalize an allocation vector.

    Raises :class:`AllocationError` unless ``alloc`` has shape ``(V,)``
    with integral entries in ``[1, P]``; returns a fresh int64 copy.
    """
    alloc = np.asarray(alloc)
    if alloc.shape != (ptg.num_tasks,):
        raise AllocationError(
            f"allocation has shape {alloc.shape}, expected "
            f"({ptg.num_tasks},)"
        )
    if issubclass(alloc.dtype.type, np.integer):
        alloc = alloc.astype(np.int64)
    else:
        rounded = np.rint(alloc)
        if not np.allclose(alloc, rounded):
            raise AllocationError("allocations must be integers")
        alloc = rounded.astype(np.int64)
    # one reduction, as in ScheduleKernel.load_block: viewed as
    # unsigned, alloc - 1 is >= P exactly when an entry is < 1 or > P
    if (alloc - 1).view(np.uint64).max() >= P:
        raise AllocationError(
            f"allocations must lie in [1, {P}]; got range "
            f"[{alloc.min()}, {alloc.max()}]"
        )
    return alloc


class ScheduleKernel:
    """One compiled (PTG, time table) pair, reused across fitness calls.

    Parameters
    ----------
    ptg:
        The task graph; the kernel binds its :attr:`~repro.graph.PTG.arrays`.
    table:
        The precomputed :class:`~repro.timemodels.TimeTable`; its dense
        ``(V, P)`` matrix is the kernel's only time-model interface.
    """

    def __init__(self, ptg: PTG, table: "TimeTable") -> None:
        if table.num_tasks != ptg.num_tasks:
            raise AllocationError(
                f"time table covers {table.num_tasks} tasks, PTG "
                f"{ptg.name!r} has {ptg.num_tasks}"
            )
        # the reference mapper, the fallback engine, works on these
        self.ptg = ptg
        self.table = table
        self.num_tasks = ptg.num_tasks
        self.num_processors = table.num_processors
        # flat row-major view: T(v, p) lives at v * P + (p - 1)
        self._flat_times = np.ascontiguousarray(table.array).reshape(-1)
        self._c = None
        self._attach_c()

    def _attach_c(self) -> None:
        """Bind the native library, if it can be built.

        The time matrix and the PTG's own int32 arrays (no copies) are
        wrapped once here, so a native call only passes precomputed
        handles.  When :func:`_cscheduler.load` degrades to ``(None,
        None)`` every entry point runs the reference mapper.
        """
        ffi, lib = _cscheduler.load()
        if lib is None:
            self._c = None
            return
        graph = self.ptg.arrays
        self._c = (
            ffi,
            lib,
            tuple(
                ffi.from_buffer(ctype, a)
                for ctype, a in (
                    ("double[]", self._flat_times),
                    ("int32_t[]", graph.order),
                    ("int32_t[]", graph.succ_indptr),
                    ("int32_t[]", graph.succ_indices),
                    ("int32_t[]", graph.in_degree),
                )
            ),
        )

    # the library handle is re-bound on arrival (the .so build is
    # cached, so this is just a dlopen)
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_c"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._attach_c()

    @property
    def has_native(self) -> bool:
        """True when the native C scheduling loop is bound."""
        return self._c is not None

    @property
    def engine(self) -> str:
        """Which engine the kernel runs on: ``"c"`` when the native
        library is bound, ``"numpy"`` on the reference-mapper fallback.

        Observability surfaces (run traces, ``report-trace``) record
        this so a silently missed C build is visible in every trace.
        """
        return "c" if self._c is not None else "numpy"

    def _reference(self, alloc, build_schedule=False, abort_above=None):
        """``alloc`` through the reference mapper, the fallback engine."""
        # imported here: list_scheduler imports this module
        from .list_scheduler import _run

        return _run(self.ptg, self.table, alloc, build_schedule, abort_above)

    def makespan(
        self, alloc: np.ndarray, abort_above: float | None = None
    ) -> float:
        """Makespan of the list schedule for ``alloc`` (fitness path).

        A batch of one: validated once, scored by one native call.
        Returns ``inf`` when ``abort_above`` is given and the partial
        schedule provably cannot beat it.
        """
        alloc = check_allocation(alloc, self.ptg, self.num_processors)
        return self._score(alloc.reshape(1, -1), abort_above)[0]

    def load_block(self, genome_block) -> np.ndarray:
        """Validate a ``(B, V)`` genome block into canonical form.

        Returns a C-contiguous int64 array — the batch analogue of
        :func:`check_allocation`, with the same checks and messages
        applied once across the whole block instead of per genome.  A
        list of genome vectors is stacked here, so rows of unequal
        length raise :class:`~repro.exceptions.AllocationError` like
        every other malformed block; an empty list is an empty block.
        """
        try:
            block = np.asarray(genome_block)
        except ValueError as exc:  # numpy refuses ragged nesting
            raise AllocationError(
                f"genome block rows differ in length, expected "
                f"(batch, {self.num_tasks})"
            ) from exc
        if block.shape == (0,):
            block = block.reshape(0, self.num_tasks)
        if block.ndim != 2 or block.shape[1] != self.num_tasks:
            raise AllocationError(
                f"genome block has shape {block.shape}, expected "
                f"(batch, {self.num_tasks})"
            )
        if block.dtype.kind not in "iu":
            rounded = np.rint(block)
            if not np.allclose(block, rounded):
                raise AllocationError("allocations must be integers")
            block = rounded.astype(np.int64)
        else:
            block = block.astype(np.int64, copy=False)
        block = np.ascontiguousarray(block)
        if block.shape[0] == 0:
            return block
        # single-reduction bounds check: viewed as unsigned, alloc - 1
        # is >= P exactly when some entry is < 1 (wraps huge) or > P
        if (block - 1).view(np.uint64).max() >= self.num_processors:
            raise AllocationError(
                f"allocations must lie in [1, {self.num_processors}]; "
                f"got range [{block.min()}, {block.max()}]"
            )
        return block

    def makespan_batch(
        self,
        genome_block,
        abort_above: float | None = None,
    ) -> list[float]:
        """Makespans for a whole batch of genomes, in input order.

        Accepts anything convertible to a ``(B, V)`` array (a stacked
        block or a list of genome vectors).  The whole block is scored
        by a single native call, optionally fanned across threads (see
        ``REPRO_CKERNEL_THREADS``).  Each genome's result is
        bit-identical to :meth:`makespan`.
        """
        block = self.load_block(genome_block)
        if block.shape[0] == 0:
            return []
        return self._score(block, abort_above)

    def _score(self, block: np.ndarray, abort_above) -> list[float]:
        """Makespans of a validated ``(B, V)`` int64 block."""
        if self._c is None:
            return [
                self._reference(row, abort_above=abort_above)[0]
                for row in block
            ]
        ffi, lib, graph = self._c
        B = block.shape[0]
        out = np.empty(B, dtype=np.float64)
        threads = batch_threads() if B > 1 else 1
        if threads > 1:
            _mark_threads_used()
        if lib.schedule_makespan_batch(
            B,
            self.num_tasks,
            self.num_processors,
            threads,
            *graph,
            ffi.from_buffer("int64_t[]", block),
            *abort_limits(abort_above, self.num_tasks),
            ffi.from_buffer("double[]", out),
        ):
            # NaN rows mark work-space allocation failures inside the
            # C driver; replay them on the reference mapper (no engine
            # ever *computes* NaN)
            for i in np.flatnonzero(np.isnan(out)):
                out[i] = self._reference(block[i], abort_above=abort_above)[0]
        return out.tolist()

    def build_schedule(self, alloc: np.ndarray):
        """The full list schedule for ``alloc``.

        Returns ``(makespan, start, finish, proc_sets)``: float64 start
        and finish arrays and one ascending int64 processor-index array
        per task — the scoring loop, also recording what it commits.
        """
        alloc = check_allocation(alloc, self.ptg, self.num_processors)
        if self._c is None:
            return self._reference(alloc, build_schedule=True)
        ffi, lib, graph = self._c
        V = self.num_tasks
        # task v's processors land in procs[proc_end[v] - alloc[v]:proc_end[v]]
        proc_end = np.cumsum(alloc)
        start = np.empty(V, dtype=np.float64)
        finish = np.empty(V, dtype=np.float64)
        procs = np.empty(int(proc_end[-1]), dtype=np.int64)
        makespan = lib.schedule_build(
            V,
            self.num_processors,
            *graph,
            ffi.from_buffer("int64_t[]", alloc),
            ffi.from_buffer("int64_t[]", proc_end),
            ffi.from_buffer("double[]", start),
            ffi.from_buffer("double[]", finish),
            ffi.from_buffer("int64_t[]", procs),
        )
        if makespan != makespan:  # NaN: no work space, see _score
            return self._reference(alloc, build_schedule=True)
        proc_sets = [
            procs[end - s:end]
            for s, end in zip(alloc.tolist(), proc_end.tolist())
        ]
        return makespan, start, finish, proc_sets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleKernel(V={self.num_tasks}, "
            f"P={self.num_processors}, E={self.ptg.num_edges})"
        )


def kernel_for(table: "TimeTable") -> ScheduleKernel:
    """The compiled kernel of ``table`` (built once, cached on it)."""
    kernel = table._kernel
    if kernel is None:
        kernel = ScheduleKernel(table.ptg, table)
        table._kernel = kernel
    return kernel
