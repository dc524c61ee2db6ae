"""CPR — Critical Path Reduction (Radulescu et al., IPDPS 2001;
paper Section II-B).

CPR is the paper's canonical example of the *one-step* family: unlike the
two-step CPA variants it evaluates the **complete schedule** after every
candidate allocation change, so allocation and mapping decisions are
interleaved.  The loop:

1. start with one processor per task;
2. consider the critical-path tasks in order of decreasing
   execution-time gain; tentatively give the first one more processor
   and rebuild the whole schedule;
3. keep the change if the *makespan* (not just the critical path)
   improved, otherwise revert and try the next candidate;
4. stop when no critical-path task improves the makespan.

This gives CPR the quality advantage the paper attributes to one-step
algorithms — every decision is validated against the real packing — at
the cost it also names: a full ``O(E + V log V + V P)`` mapping per
candidate, ``O(V P)`` acceptances worst case.  The benchmark suite uses
CPR to quantify the one-step/two-step trade-off next to EMTS (which buys
schedule-level feedback more cheaply via the EA).
"""

from __future__ import annotations

import numpy as np

from ..graph import PTG
from ..mapping import makespan_of
from ..timemodels import TimeTable
from .base import AllocationHeuristic
from .cpa import critical_path_mask

__all__ = ["CprAllocator"]

_EPS = 1e-12


class CprAllocator(AllocationHeuristic):
    """Critical Path Reduction: schedule-validated allocation growth.

    Parameters
    ----------
    max_iterations:
        Safety cap on accepted growth steps (defaults to ``V * P``).
    """

    name = "cpr"

    def __init__(self, max_iterations: int | None = None) -> None:
        self.max_iterations = max_iterations

    def allocate(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        P = table.num_processors
        V = ptg.num_tasks
        alloc = np.ones(V, dtype=np.int64)
        best_ms = makespan_of(ptg, table, alloc)
        limit = (
            self.max_iterations
            if self.max_iterations is not None
            else V * P
        )
        idx = np.arange(V)

        for _ in range(limit):
            times = table.times_for(alloc)
            on_cp, _ = critical_path_mask(ptg, times)
            cand = on_cp & (alloc < P)
            if not cand.any():
                break
            # try candidates in order of decreasing execution-time gain
            grown = table.array[idx[cand], alloc[cand]]
            gains = times[cand] - grown
            order = idx[cand][np.argsort(-gains)]
            improved = False
            for v in order:
                alloc[v] += 1
                ms = makespan_of(
                    ptg, table, alloc, abort_above=best_ms
                )
                if ms < best_ms - _EPS:
                    best_ms = ms
                    improved = True
                    break
                alloc[v] -= 1
            if not improved:
                break
        return alloc
