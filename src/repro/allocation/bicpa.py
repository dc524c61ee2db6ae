"""BiCPA — bi-criteria CPA (Desprez & Suter, CCGrid 2010;
paper Section II-B).

BiCPA addresses a blind spot of plain CPA: CPA balances the critical
path against the average area of the *whole* machine, so on a large
cluster it stops growing allocations early and can leave most
processors idle even when using them would shorten the schedule (and
conversely can over-allocate when resources are scarce).  BiCPA
instead computes one CPA allocation for every *virtual* cluster size
``k = 1..P`` (the ``T_A`` balance is taken against ``k`` processors),
maps each candidate onto the **full** machine, and then picks a
candidate by a bi-criteria rule over (makespan, consumed work area):

* ``objective="product"`` (default): minimize ``makespan * area`` — a
  scale-free aggregation of the two criteria;
* ``objective="makespan"``: minimize makespan, breaking ties toward
  less area (the pure-performance end of BiCPA's Pareto front);
* ``objective="area"``: minimize area among candidates whose makespan
  is within ``tolerance`` of the best (the resource-frugal end).

The original article evaluates the full Pareto front; the aggregation
rules above correspond to the extreme and balanced picks and are
documented as our selection of that front.  ``step`` thins the virtual
sizes to every ``step``-th value to bound the ``O(P)`` CPA runs.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..graph import PTG
from ..mapping import makespan_of
from ..timemodels import TimeTable
from .base import AllocationHeuristic
from .cpa import CpaAllocator

__all__ = ["BicpaAllocator"]


class _VirtualCpa(CpaAllocator):
    """CPA on a virtual cluster of ``virtual_p`` processors: the stop
    test becomes ``T_CP <= area / k`` and no task grows beyond ``k``,
    for ``k = min(virtual_p, P)``."""

    def __init__(self, virtual_p: int) -> None:
        super().__init__()
        self.virtual_p = virtual_p

    def _area_divisor(self, table: TimeTable) -> int:
        return min(self.virtual_p, table.num_processors)


class BicpaAllocator(AllocationHeuristic):
    """Bi-criteria CPA over virtual cluster sizes.

    Parameters
    ----------
    objective:
        Candidate-selection rule: ``"product"`` (default),
        ``"makespan"`` or ``"area"`` (see module docstring).
    step:
        Evaluate virtual sizes ``1, 1+step, 1+2*step, ... , P``.
    tolerance:
        Relative makespan slack used by the ``"area"`` objective.
    """

    name = "bicpa"

    def __init__(
        self,
        objective: str = "product",
        step: int = 1,
        tolerance: float = 0.05,
    ) -> None:
        if objective not in ("product", "makespan", "area"):
            raise ConfigurationError(
                f"objective must be product|makespan|area, got "
                f"{objective!r}"
            )
        if step < 1:
            raise ConfigurationError(f"step must be >= 1, got {step}")
        if tolerance < 0:
            raise ConfigurationError(
                f"tolerance must be >= 0, got {tolerance}"
            )
        self.objective = objective
        self.step = int(step)
        self.tolerance = float(tolerance)

    def _virtual_sizes(self, P: int) -> list[int]:
        sizes = list(range(1, P + 1, self.step))
        if sizes[-1] != P:
            sizes.append(P)
        return sizes

    def allocate(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        P = table.num_processors
        candidates: list[tuple[float, float, np.ndarray]] = []
        seen: set[bytes] = set()
        for k in self._virtual_sizes(P):
            alloc = _VirtualCpa(k).allocate(ptg, table)
            key = alloc.tobytes()
            if key in seen:
                continue  # many virtual sizes converge to one solution
            seen.add(key)
            ms = makespan_of(ptg, table, alloc)
            area = table.work_area(alloc)
            candidates.append((ms, area, alloc))

        if self.objective == "product":
            best = min(candidates, key=lambda c: c[0] * c[1])
        elif self.objective == "makespan":
            best = min(candidates, key=lambda c: (c[0], c[1]))
        else:  # area within tolerance of the best makespan
            best_ms = min(c[0] for c in candidates)
            eligible = [
                c
                for c in candidates
                if c[0] <= best_ms * (1.0 + self.tolerance)
            ]
            best = min(eligible, key=lambda c: (c[1], c[0]))
        return best[2]
