"""Mapping step: allocation vectors → concrete schedules (Section III-A).

Public API:

* :func:`map_allocations` — list scheduling by decreasing bottom level,
  first-fit processor sets; returns a :class:`Schedule`, which the
  mapper does not check (:class:`repro.verify.ScheduleVerifier` does);
* :func:`makespan_of` — the same engine, makespan-only (the EA fitness
  fast path), with the optional ``abort_above`` rejection strategy;
* :class:`ScheduleKernel` / :func:`kernel_for` — the compiled engine
  behind both of the above: the PTG's int32 graph arrays and the dense
  time table, bound once per (PTG, table) pair, scored and scheduled by
  one native loop (the
  reference mapper when no C compiler is available); safe to share
  between threads;
* :func:`check_allocation` — the one check of an allocation vector
  (shape, integral entries in ``[1, P]``);
* :class:`Schedule`, :class:`ScheduledTask` — schedule data model;
* :class:`ProcessorState` — processor-availability bookkeeping;
* :func:`ascii_gantt` / :func:`svg_gantt` — Gantt rendering (Figure 6).
"""

from .._lazy import lazy_namespace

__all__ = [
    "map_allocations",
    "makespan_of",
    "ScheduleKernel",
    "kernel_for",
    "check_allocation",
    "makespan_lower_bound",
    "PRIORITIES",
    "Schedule",
    "ScheduledTask",
    "ProcessorState",
    "ascii_gantt",
    "svg_gantt",
    "save_svg_gantt",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".gantt": ("ascii_gantt", "save_svg_gantt", "svg_gantt"),
        ".io": (
            "load_schedule",
            "save_schedule",
            "schedule_from_dict",
            "schedule_to_dict",
        ),
        ".kernel": ("ScheduleKernel", "kernel_for"),
        ".list_scheduler": (
            "PRIORITIES",
            "check_allocation",
            "makespan_lower_bound",
            "makespan_of",
            "map_allocations",
        ),
        ".processor_state": ("ProcessorState",),
        ".schedule": ("Schedule", "ScheduledTask"),
    },
)
