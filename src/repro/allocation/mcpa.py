"""MCPA — Modified CPA allocation (Bansal, Kumar & Singh, Parallel
Computing 2006; paper Section II-B) and the MCPA2 refinement
(Hunold, CCGrid 2010).

CPA ignores *task parallelism*: it happily grows a critical task's
allocation to the full machine even when the task has many concurrent
siblings that then serialize behind it.  MCPA "makes better use of the
potential task parallelism by bounding the allocation size per DAG level"
(paper): a task may only receive another processor while the **sum of the
allocations of its precedence level stays within the machine size**::

    grow s(v) only if  sum_{w in level(v)} s(w) < P

This is why, in the paper's experiments, MCPA is hard to beat on
regularly-shaped PTGs (FFT, Strassen, layered): their wide levels of
similar tasks are exactly what the bound protects.

**MCPA2** replaces the all-or-nothing level budget with a per-task cap
proportional to work: task ``v`` of level ``l`` may grow while

    s(v) < max(1, round(P * w(v) / W(l)))

where ``w(v)`` is the task's sequential time and ``W(l)`` the level's
total.  Big tasks of a level may thus take more than the even share
``P / |level|``, which helps when a level mixes long and short tasks.
MCPA2 is not part of the paper's evaluation (it compares MCPA and HCPA)
but is included for the ablation studies.
"""

from __future__ import annotations

import numpy as np

from ..graph import PTG, precedence_levels
from ..timemodels import TimeTable
from .cpa import CpaAllocator

__all__ = ["McpaAllocator", "Mcpa2Allocator"]


class McpaAllocator(CpaAllocator):
    """CPA with MCPA's per-precedence-level allocation budget."""

    name = "mcpa"
    level_budget = True


class Mcpa2Allocator(CpaAllocator):
    """CPA with MCPA2's work-proportional per-task caps."""

    name = "mcpa2"

    def _caps(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        P = table.num_processors
        levels = precedence_levels(ptg)
        seq = table.array[:, 0]  # T(v, 1)
        level_work = np.bincount(
            levels, weights=seq, minlength=int(levels.max()) + 1
        )
        share = P * seq / level_work[levels]
        return np.maximum(1, np.rint(share)).astype(np.int64)
