"""Pinned online answers: every seeded execution must reproduce the fixture.

``tests/data/pinned_online.json`` holds, for MCPA-planned FFT-15 and
FFT-39 on Chti/Grelon × Amdahl/Synthetic × three seeds, one
``execute_online`` run under a sampled fault plan with the benchmark's
mixed fault pressure (crashes, failures and stragglers at once, so every
rung of the reaction ladder runs).  Per run it records the outcome, the
makespan (``float.hex``), the reschedule count, the rung counts, the
reaction budget used and a SHA-256 of the executed start times.

Regenerate (only when an answer is meant to change)::

    PYTHONPATH=src python tests/test_pinned_online.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import make_allocator
from repro.mapping import map_allocations
from repro.online import FaultPlan, ReactionPolicy, execute_online
from repro.platform import by_name
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.workloads import generate_fft

FIXTURE = Path(__file__).parent / "data" / "pinned_online.json"

#: the mixed fault pressure of the ``online-faults`` benchmark workload
FAULT_RATES = {
    "crash_rate": 0.05,
    "failure_rate": 0.25,
    "straggler_rate": 0.25,
    "straggler_factor": 2.5,
}
GRAPHS = {"fft15": 4, "fft39": 8}
PLATFORMS = ("chti", "grelon")
MODELS = {"amdahl": AmdahlModel, "synthetic": SyntheticModel}
SEEDS = (21, 22, 23)


def cells():
    """Every (name, graph, platform, model, seed) run."""
    return [
        (f"{g}/{p}/{m}/{s}", g, p, m, s)
        for g in GRAPHS
        for p in PLATFORMS
        for m in MODELS
        for s in SEEDS
    ]


def answer(graph: str, platform: str, model: str, seed: int):
    """The recorded answer of one run, in the fixture's JSON shape."""
    ptg = generate_fft(GRAPHS[graph], rng=seed)
    cluster = by_name(platform)
    table = TimeTable.build(MODELS[model](), ptg, cluster)
    planned = map_allocations(
        ptg, table, make_allocator("mcpa").allocate(ptg, table)
    )
    plan = FaultPlan.sampled(
        seed,
        ptg.num_tasks,
        cluster.num_processors,
        horizon=planned.makespan,
        # one failure by plan plus one per crashed processor never
        # exhausts this budget, so every run completes
        max_retries=cluster.num_processors,
        **FAULT_RATES,
    )
    result = execute_online(
        planned, table, plan=plan, policy=ReactionPolicy(), rng=seed
    )
    start = (
        np.ascontiguousarray(result.schedule.start, dtype=np.float64)
        if result.schedule is not None
        else np.empty(0, dtype=np.float64)
    )
    return {
        "outcome": result.outcome,
        "makespan": float(result.makespan).hex(),
        "reschedules": int(result.reschedules),
        "rungs": {k: int(v) for k, v in sorted(result.rungs.items())},
        "budget_used": int(result.budget_used),
        "start_sha256": hashlib.sha256(start.tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_cell(pinned):
    assert sorted(pinned) == sorted(name for name, *_ in cells())


def test_fixture_exercises_the_emts_rung(pinned):
    assert sum(run["rungs"].get("emts", 0) for run in pinned.values()) > 0


@pytest.mark.parametrize(
    "name,graph,platform,model,seed", cells(), ids=[c[0] for c in cells()]
)
def test_run_reproduces_pinned_answer(pinned, name, graph, platform, model, seed):
    assert answer(graph, platform, model, seed) == pinned[name]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pinned_online.py --write")
    rows = [
        f"  {json.dumps(name)}: {json.dumps(answer(*args), sort_keys=True)}"
        for name, *args in sorted(cells())
    ]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(rows)} runs to {FIXTURE}")
