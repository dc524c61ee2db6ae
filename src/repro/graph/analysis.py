"""Structural analyses of parallel task graphs.

This module implements every graph metric the scheduling algorithms rely
on (paper Sections II-B and III):

* **bottom level** ``bl(v)`` — length of the longest path from ``v`` to any
  sink *including* ``v``'s own execution time (footnote 1 of the paper);
* **top level** ``tl(v)`` — length of the longest path from any source to
  ``v`` *excluding* ``v``;
* **precedence level** — depth of ``v`` measured in hops from the sources
  (used to layer the PTG for the Δ-critical seed and for MCPA's per-level
  allocation bound);
* **critical path** — a concrete source→sink path realizing the maximum
  bottom level;
* **Δ-critical sets** — per precedence level, the tasks whose bottom level
  is within a factor Δ of the level's maximum (paper Section III-B,
  following Suter's Δ-critical task concept).

All functions accept a vector of per-task execution times so the caller
decides the allocation (e.g. ``times`` for one-processor allocations for
the seeding heuristic, or the current individual's allocations inside the
EA's fitness function).

Bottom and top levels are one Python sweep each, over plain lists in
(reverse) topological order (:func:`bottom_level_list`,
:func:`top_level_list`).  The reference mapper runs the bottom-level
sweep once per genome of the online EMTS rung, on frontiers of a few
tasks, and the Python CPA growth loop once per growth step; at those
sizes numpy's per-call dispatch would cost more than the sweep.  The
compiled paths (the C slot loop and ``cpa_allocate``) sweep in C over
:class:`CSRAdjacency`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from .ptg import PTG

__all__ = [
    "CSRAdjacency",
    "csr_adjacency",
    "bottom_levels",
    "top_levels",
    "bottom_level_list",
    "top_level_list",
    "precedence_levels",
    "level_members",
    "critical_path",
    "critical_path_length",
    "delta_critical_sets",
    "graph_width",
]


@dataclass(frozen=True)
class CSRAdjacency:
    """The PTG's adjacency flattened to CSR index arrays.

    One shared, immutable analysis per PTG (cached on the graph): the
    compiled scheduling kernel and the native CPA-family growth loop
    walk the DAG through these arrays; the Python sweeps of this module
    use the PTG's own tuples.

    ``succ_indices[succ_indptr[v]:succ_indptr[v+1]]`` are the successors
    of task ``v`` (sorted by index); the ``pred_*`` pair is the reverse
    adjacency.  ``edge_src``/``edge_dst`` list every edge in successor-CSR
    order (grouped by source, destinations ascending) — a deterministic
    ordering shared by every consumer.
    """

    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    in_degree: np.ndarray
    out_degree: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray

    @property
    def num_tasks(self) -> int:
        """Number of nodes ``V``."""
        return self.in_degree.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of edges ``E``."""
        return self.succ_indices.shape[0]


def csr_adjacency(ptg: PTG) -> CSRAdjacency:
    """The CSR view of ``ptg`` (built once, cached on the graph)."""
    cached = ptg._csr_cache
    if cached is not None:
        return cached
    n = ptg.num_tasks
    out_degree = np.fromiter(
        (len(ptg.successors(v)) for v in range(n)),
        dtype=np.int64,
        count=n,
    )
    in_degree = np.fromiter(
        (len(ptg.predecessors(v)) for v in range(n)),
        dtype=np.int64,
        count=n,
    )
    succ_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_degree, out=succ_indptr[1:])
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_degree, out=pred_indptr[1:])
    e = int(succ_indptr[-1])
    succ_indices = np.fromiter(
        (w for v in range(n) for w in ptg.successors(v)),
        dtype=np.int64,
        count=e,
    )
    pred_indices = np.fromiter(
        (u for v in range(n) for u in ptg.predecessors(v)),
        dtype=np.int64,
        count=e,
    )
    edge_src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    csr = CSRAdjacency(
        succ_indptr=succ_indptr,
        succ_indices=succ_indices,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
        in_degree=in_degree,
        out_degree=out_degree,
        edge_src=edge_src,
        edge_dst=succ_indices,
    )
    for arr in (
        succ_indptr,
        succ_indices,
        pred_indptr,
        pred_indices,
        in_degree,
        out_degree,
        edge_src,
    ):
        arr.setflags(write=False)
    ptg._csr_cache = csr
    return csr


def _check_times(ptg: PTG, times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.shape != (ptg.num_tasks,):
        raise ValidationError(
            f"times has shape {times.shape}, expected ({ptg.num_tasks},)"
        )
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValidationError("times must be finite and non-negative")
    return times


def bottom_level_list(ptg: PTG, t: list[float]) -> list[float]:
    """Bottom levels from per-task times, both as plain lists.

    ``bl(v) = t[v] + max(bl(w) for w in successors(v))``, with the
    convention ``max() == 0`` for sinks, swept once in reverse
    topological order over the PTG's successor tuples.  Each value is
    one addition and IEEE max is exact, so the result does not depend
    on the order in which successors are visited.  ``t`` is not
    checked: the mapper and the CPA growth loop read it from a
    validated :class:`~repro.timemodels.TimeTable`.
    """
    succ = ptg._succs
    bl = [0.0] * len(t)
    for v in reversed(ptg._order):
        m = 0.0
        for w in succ[v]:
            x = bl[w]
            if x > m:
                m = x
        bl[v] = t[v] + m
    return bl


def top_level_list(ptg: PTG, t: list[float]) -> list[float]:
    """Top levels from per-task times, both as plain lists.

    ``tl(v) = max(tl(u) + t[u] for u in predecessors(v))`` (0 for
    sources), swept once in topological order; unchecked like
    :func:`bottom_level_list`.
    """
    pred = ptg._preds
    tl = [0.0] * len(t)
    for v in ptg._order:
        m = 0.0
        for u in pred[v]:
            x = tl[u] + t[u]
            if x > m:
                m = x
        tl[v] = m
    return tl


def bottom_levels(ptg: PTG, times: np.ndarray) -> np.ndarray:
    """Bottom level of every task (longest path to a sink, including v).

    ``times`` must hold one finite, non-negative time per task
    (:class:`~repro.exceptions.ValidationError` otherwise); the sweep
    is :func:`bottom_level_list`.
    """
    t = _check_times(ptg, times).tolist()
    return np.array(bottom_level_list(ptg, t), dtype=np.float64)


def top_levels(ptg: PTG, times: np.ndarray) -> np.ndarray:
    """Top level of every task (longest path from a source, excluding v);
    checked like :func:`bottom_levels`, swept by :func:`top_level_list`."""
    t = _check_times(ptg, times).tolist()
    return np.array(top_level_list(ptg, t), dtype=np.float64)


def precedence_levels(ptg: PTG) -> np.ndarray:
    """Depth of each task from the sources, in hops.

    Sources are level 0; any other task sits one level below its deepest
    predecessor.  The result is cached on the PTG (it depends only on
    structure, never on execution times).
    """
    cached = ptg._levels
    if cached is not None:
        return cached
    lv = np.zeros(ptg.num_tasks, dtype=np.int64)
    for v in ptg.topological_order:
        preds = ptg.predecessors(int(v))
        if preds:
            lv[v] = max(lv[u] for u in preds) + 1
    ptg._levels = lv
    return lv


def level_members(ptg: PTG) -> list[np.ndarray]:
    """Indices of the tasks on each precedence level.

    ``level_members(g)[k]`` is an int64 array with the tasks whose
    precedence level is ``k``.
    """
    lv = precedence_levels(ptg)
    depth = int(lv.max()) + 1
    return [np.flatnonzero(lv == k) for k in range(depth)]


def critical_path_length(ptg: PTG, times: np.ndarray) -> float:
    """Length of the critical path, ``T_CP = max_v bl(v)``."""
    return float(bottom_levels(ptg, times).max())


def critical_path(ptg: PTG, times: np.ndarray) -> list[int]:
    """One concrete critical path as a list of task indices.

    Starts at the source with the maximum bottom level and greedily follows
    the successor that realizes ``bl(v) = times[v] + bl(w)``.
    """
    bl = bottom_levels(ptg, times)
    sources = ptg.sources
    v = max(sources, key=lambda s: bl[s])
    path = [v]
    while True:
        succs = ptg.successors(v)
        if not succs:
            break
        target = bl[v] - times[v]
        nxt = None
        for w in succs:
            if np.isclose(bl[w], target, rtol=1e-12, atol=1e-12):
                nxt = w
                break
        if nxt is None:  # numerical fallback: follow the largest bl
            nxt = max(succs, key=lambda w: bl[w])
        path.append(nxt)
        v = nxt
    return path


def delta_critical_sets(
    ptg: PTG, times: np.ndarray, delta: float = 0.9
) -> list[np.ndarray]:
    """Δ-critical tasks per precedence level (paper Section III-B).

    For each precedence level ``k``, returns the indices of the tasks whose
    bottom level satisfies ``bl(v) >= delta * max(bl(w) for w in level k)``.
    ``delta=0.9`` means tasks whose criticality is at most 10 % below the
    level maximum count as critical.
    """
    if not (0.0 <= delta <= 1.0):
        raise ValidationError(f"delta must lie in [0, 1], got {delta}")
    bl = bottom_levels(ptg, times)
    out: list[np.ndarray] = []
    for members in level_members(ptg):
        level_max = bl[members].max()
        crit = members[bl[members] >= delta * level_max]
        out.append(crit)
    return out


def graph_width(ptg: PTG) -> int:
    """Maximum number of tasks on any precedence level.

    An easy upper bound on exploitable task parallelism, used in reports
    and by the MCPA2 heuristic.
    """
    lv = precedence_levels(ptg)
    return int(np.bincount(lv).max())
