#!/usr/bin/env python
"""Scheduling under a wall-clock budget.

The paper frames EMTS around real-world time constraints: "since we can
usually trade time for solution quality, we focus on a given time
constraint" (Section II-C).  This example runs the same scheduling
problem under increasing wall-clock budgets (``max_wall_time``) and
shows the quality/time trade-off: more budget, shorter schedules,
diminishing returns.  A run the clock stops returns its best-so-far
schedule with ``interrupted=True``.

Run:  python examples/time_budget.py
"""

from repro import EMTS, EMTSConfig, SyntheticModel, TimeTable, grelon
from repro.experiments import text_table
from repro.workloads import DaggenParams, generate_daggen


def main() -> None:
    ptg = generate_daggen(
        DaggenParams(
            num_tasks=100, width=0.5, regularity=0.2, density=0.8, jump=2
        ),
        rng=5,
        name="budgeted-workflow",
    )
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)

    budgets = [0.05, 0.2, 0.5, 2.0]
    # one config, so one seeded trajectory: a shorter budget stops
    # earlier on the same path (the config name seeds the stream)
    config = EMTSConfig(
        mu=10,
        lam=100,
        generations=1000,  # effectively unbounded; the clock stops us
    )
    rows = []
    for budget in budgets:
        result = EMTS(config).schedule(
            ptg, cluster, table, rng=5, max_wall_time=budget
        )
        rows.append(
            [
                f"{budget:g} s",
                result.log.generations - 1,
                result.evaluations,
                result.makespan,
                result.improvement_over("mcpa"),
            ]
        )

    print(
        text_table(
            [
                "budget",
                "generations",
                "evaluations",
                "makespan [s]",
                "T_mcpa/T_emts",
            ],
            rows,
        )
    )
    print(
        "note: the makespan column is non-increasing down the table —\n"
        "the plus-strategy never loses a solution it has found, so more\n"
        "budget can only help (paper Section V)."
    )


if __name__ == "__main__":
    main()
