"""Differential schedule verification: N engines, one answer.

The library evaluates the same list-scheduling algorithm through three
engines with very different failure modes:

* the **native C loop** (:mod:`repro.mapping._cscheduler`) — fastest,
  but a miscompiled or silently corrupted shared library would produce
  plausible-looking garbage;
* the **reference mapper** (:func:`repro.mapping.list_scheduler._run`)
  — pure Python over the original PTG/TimeTable objects, the oracle of
  the property suite and the kernel's fallback without the library;
* the **discrete-event simulator** (:func:`repro.simulator.simulate`)
  — replays the built schedule and independently enforces the platform
  semantics.

:func:`differential_check` replays one allocation through every
available engine (the reference mapper once: the schedule it builds
gives its makespan and is the one verified and simulated), verifies the
built schedule's invariants with
:class:`~repro.verify.ScheduleVerifier`, and raises
:class:`~repro.exceptions.VerificationError` (``kind =
"engine-divergence"``) the moment any two engines disagree.  Build-time
bit-identity tests cannot catch corruption that happens *after* the
build (a bad memory stick, a truncated cache file, a chaos fault);
differential replay at run time can.

The first two engines are bit-identical by contract, so they are
compared **exactly**; the simulator re-derives start times through its
own event queue and is compared within its documented tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import SimulationError, VerificationError
from ..graph import PTG
from ..mapping import kernel_for, map_allocations
from ..simulator import simulate
from ..timemodels import TimeTable
from .verifier import ScheduleVerifier

__all__ = ["DifferentialReport", "differential_check"]

#: Relative tolerance granted to the simulator's re-derived makespan
#: (same bound :func:`repro.simulator.simulate` itself enforces).
_SIM_RTOL = 1e-6


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one differential replay.

    ``engines`` maps each engine that ran to the makespan it produced;
    ``makespan`` is their (agreed) value.
    """

    makespan: float
    engines: dict[str, float]
    invariants_checked: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(sorted(self.engines))
        return (
            f"{len(self.engines)} engines agree on makespan "
            f"{self.makespan:.6g} ({names})"
        )


def _divergence(engines: dict[str, float], detail: str) -> VerificationError:
    listing = ", ".join(
        f"{name}={value!r}" for name, value in engines.items()
    )
    return VerificationError(
        f"scheduling engines diverge: {detail} [{listing}]",
        kind="engine-divergence",
    )


def differential_check(
    ptg: PTG,
    table: TimeTable,
    alloc: np.ndarray,
    expected: float | None = None,
) -> DifferentialReport:
    """Replay ``alloc`` through every engine and compare the makespans.

    Parameters
    ----------
    ptg, table:
        The scheduling problem.
    alloc:
        The allocation vector to replay.
    expected:
        Optional makespan some component already reported for this
        allocation (an evaluator backend, a cache, a results file); it
        must match the engines exactly.  A NaN here is always a
        divergence — no engine produces one.

    Raises
    ------
    VerificationError
        ``kind="engine-divergence"`` when any two engines (or
        ``expected``) disagree; the verifier's structural kinds when
        the built schedule violates an invariant.
    """
    engines: dict[str, float] = {}
    if expected is not None:
        engines["reported"] = float(expected)
        if np.isnan(expected):
            raise _divergence(
                engines, "reported makespan is NaN"
            )

    kernel = kernel_for(table)
    if kernel.has_native:
        engines["kernel-c"] = float(kernel.makespan(alloc))
    # one pass of the reference mapper builds the schedule that is
    # verified and simulated below, and its makespan is this engine's
    schedule = map_allocations(ptg, table, alloc, compiled=False)
    engines["reference"] = schedule.makespan

    exact = [
        (name, value)
        for name, value in engines.items()
        if name != "reported"
    ]
    first_name, first = exact[0]
    for name, value in exact[1:]:
        if value != first:
            raise _divergence(
                engines, f"{name} != {first_name}"
            )
    if expected is not None and float(expected) != first:
        raise _divergence(
            engines, f"reported != {first_name}"
        )

    # check every structural invariant of the reference schedule, then
    # replay it in simulated time
    ScheduleVerifier(ptg, table).verify(
        schedule, expected_makespan=first
    )
    try:
        sim = simulate(schedule, table)
    except SimulationError as exc:
        raise VerificationError(
            f"simulator rejects the schedule the engines agreed on: "
            f"{exc}",
            kind="engine-divergence",
        ) from exc
    engines["simulator"] = float(sim.makespan)
    if abs(sim.makespan - first) > _SIM_RTOL * max(1.0, abs(first)):
        raise _divergence(engines, f"simulator != {first_name}")

    return DifferentialReport(
        makespan=first, engines=engines, invariants_checked=True
    )
