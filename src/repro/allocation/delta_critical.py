"""Δ-critical layered allocation — EMTS's third starting solution
(paper Section III-B, following Suter's Δ-critical task concept).

With one-processor bottom levels, the PTG's tasks are grouped by
precedence level (depth from the source).  Within each level ``l`` the
*Δ-critical* tasks are those whose bottom level is within a factor
``Δ`` of the level maximum::

    critical(l) = { v in level l : bl(v) >= Δ * max_{w in level l} bl(w) }

All processors of the machine are then shared among the critical tasks of
each level: each of the ``c_l`` critical tasks receives ``floor(P / c_l)``
processors, every non-critical task receives 1.  ``Δ = 0.9`` (the paper's
setting) counts tasks whose criticality is at most 10 % below the level
maximum as critical.

The heuristic deliberately over-allocates compared to CPA-style
area-balancing — it is designed as a *diverse* seed for the evolutionary
search, giving the EA a starting point from the "wide allocations" corner
of the search space, complementing the conservative MCPA/HCPA seeds.
"""

from __future__ import annotations

import numpy as np

from ..graph import PTG, delta_critical_sets
from ..timemodels import TimeTable
from .base import AllocationHeuristic

__all__ = ["DeltaCriticalAllocator"]


class DeltaCriticalAllocator(AllocationHeuristic):
    """Share the machine among the Δ-critical tasks of each level.

    Parameters
    ----------
    delta:
        Criticality threshold in ``[0, 1]``; the paper uses 0.9.
    """

    name = "delta-critical"

    def __init__(self, delta: float = 0.9) -> None:
        if not (0.0 <= delta <= 1.0):
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        self.delta = float(delta)

    def allocate(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        P = table.num_processors
        alloc = np.ones(ptg.num_tasks, dtype=np.int64)
        # bottom levels under the all-ones allocation, as the paper states
        times = table.times_for(alloc)
        for critical in delta_critical_sets(ptg, times, self.delta):
            alloc[critical] = max(1, P // critical.size)
        return alloc
