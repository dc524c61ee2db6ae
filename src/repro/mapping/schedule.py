"""Schedule representation.

A :class:`Schedule` is the final product of any scheduling algorithm in
this library: for every task a start time, a finish time and a concrete
processor set.  Its constructor checks only the shapes; whether the
placements form a valid mixed-parallel schedule (allocation consistency,
precedence, processor exclusivity, finite times, durations that match
the time table) is judged by :class:`repro.verify.ScheduleVerifier`,
which shares no code with the mappers that build schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ScheduleError
from ..graph import PTG
from ..platform import Cluster

__all__ = ["Schedule", "ScheduledTask"]


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task (a convenience view into a Schedule)."""

    index: int
    name: str
    start: float
    finish: float
    processors: tuple[int, ...]

    @property
    def duration(self) -> float:
        """Execution time of the placed task."""
        return self.finish - self.start

    @property
    def allocation(self) -> int:
        """Number of processors used."""
        return len(self.processors)


class Schedule:
    """A complete schedule of a PTG on a cluster.

    Parameters
    ----------
    ptg, cluster:
        The scheduled application and platform.
    start, finish:
        Float arrays of length ``V``.
    proc_sets:
        For each task, the assigned processor indices (each an int array).
    """

    __slots__ = ("ptg", "cluster", "start", "finish", "proc_sets")

    def __init__(
        self,
        ptg: PTG,
        cluster: Cluster,
        start: np.ndarray,
        finish: np.ndarray,
        proc_sets: list[np.ndarray],
    ) -> None:
        self.ptg = ptg
        self.cluster = cluster
        self.start = np.asarray(start, dtype=np.float64)
        self.finish = np.asarray(finish, dtype=np.float64)
        self.proc_sets = [
            np.asarray(ps, dtype=np.int64) for ps in proc_sets
        ]
        V = ptg.num_tasks
        if self.start.shape != (V,) or self.finish.shape != (V,):
            raise ScheduleError(
                f"start/finish must have shape ({V},), got "
                f"{self.start.shape}/{self.finish.shape}"
            )
        if len(self.proc_sets) != V:
            raise ScheduleError(
                f"expected {V} processor sets, got {len(self.proc_sets)}"
            )

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Overall completion time — the paper's optimization objective."""
        return float(self.finish.max())

    @property
    def allocations(self) -> np.ndarray:
        """Allocation sizes ``s(v)`` recovered from the processor sets."""
        return np.array(
            [len(ps) for ps in self.proc_sets], dtype=np.int64
        )

    @property
    def utilization(self) -> float:
        """Fraction of the ``P x makespan`` area actually computing."""
        ms = self.makespan
        if ms <= 0:
            return 0.0
        area = float(
            np.sum((self.finish - self.start) * self.allocations)
        )
        return area / (self.cluster.num_processors * ms)

    def task(self, v: int) -> ScheduledTask:
        """The placement of task ``v`` as a :class:`ScheduledTask`."""
        return ScheduledTask(
            index=v,
            name=self.ptg.task(v).name,
            start=float(self.start[v]),
            finish=float(self.finish[v]),
            processors=tuple(int(p) for p in self.proc_sets[v]),
        )

    def tasks_by_start(self) -> list[ScheduledTask]:
        """All placements ordered by start time (ties: task index)."""
        order = np.lexsort((np.arange(len(self.start)), self.start))
        return [self.task(int(v)) for v in order]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(ptg={self.ptg.name!r}, cluster={self.cluster.name!r},"
            f" makespan={self.makespan:.6g})"
        )
