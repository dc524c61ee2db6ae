"""Processor-availability bookkeeping for the list scheduler.

The mapper only ever needs two operations on the platform state:

* *when could a task needing ``s`` processors start, given it becomes
  data-ready at time ``r``?* — the answer is ``max(r, s-th smallest
  processor free time)``;
* *commit a task*: mark ``s`` processors busy until ``finish``.

Processors are selected **first-fit by index** among those free at the
start time, matching the paper's "first processor set that contains
``s(v)`` available processors".  Keeping the rule identical between the
fast (makespan-only) and full (schedule-building) paths guarantees the
EA's fitness value equals the makespan of the final reconstructed
schedule.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ScheduleError

__all__ = ["ProcessorState"]

_EPS = 1e-12


class ProcessorState:
    """Free-time vector over ``P`` identical processors."""

    __slots__ = ("free", "_scratch")

    def __init__(self, num_processors: int) -> None:
        if num_processors < 1:
            raise ScheduleError(
                f"need at least one processor, got {num_processors}"
            )
        self.free = np.zeros(num_processors, dtype=np.float64)
        # partition workspace: earliest_start is called once per task
        # inside the mapper loop, so the order statistic must not
        # allocate a fresh P-vector every call
        self._scratch = np.empty(num_processors, dtype=np.float64)

    @property
    def num_processors(self) -> int:
        """Platform size ``P``."""
        return self.free.shape[0]

    def earliest_start(self, s: int, ready: float) -> float:
        """Earliest time a task needing ``s`` processors can start.

        ``s`` processors are simultaneously free from the ``s``-th
        smallest entry of the free-time vector onwards; the task may also
        not start before its data-ready time.

        The whole-cluster (``s == P``) and single-processor (``s == 1``)
        cases reduce to a max/min reduction — no partitioning; the
        general case partitions an owned scratch copy in place.  The
        range check rides on the same dispatch instead of a separate
        branch per call.
        """
        free = self.free
        P = free.shape[0]
        if s == P:
            kth = free.max()
        elif 1 < s < P:
            scratch = self._scratch
            np.copyto(scratch, free)
            scratch.partition(s - 1)
            kth = scratch[s - 1]
        elif s == 1:
            kth = free.min()
        else:
            raise ScheduleError(f"allocation {s} outside [1, {P}]")
        return max(ready, float(kth))

    def assign(
        self, s: int, start: float, finish: float
    ) -> np.ndarray:
        """Commit ``s`` processors from ``start`` to ``finish``.

        Returns the chosen processor indices (first-fit by index among
        processors free at ``start``).
        """
        candidates = (self.free <= start + _EPS).nonzero()[0]
        if candidates.size < s:
            raise ScheduleError(
                f"only {candidates.size} processors free at t={start}, "
                f"need {s} (free times: min={self.free.min():.6g})"
            )
        chosen = candidates[:s]
        self.free[chosen] = finish
        return chosen

    def reset(self) -> None:
        """Return all processors to the idle state at t=0."""
        self.free.fill(0.0)
