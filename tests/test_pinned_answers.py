"""Pinned EMTS answers: every run must reproduce the committed fixture.

``tests/data/pinned_answers.json`` holds, for EMTS5, EMTS10 and the
island model (EMTS10 with ``islands=True``; recorded when ``islands``
was a shard count, here 5, that never changed an answer) on FFT-15, FFT-39 and Strassen
× Chti/Grelon × Amdahl/Synthetic × two seeds, the makespan
(``float.hex``), a SHA-256 of the winning allocation vector and every
generation's ``(best, evaluations)``.  The fixture was written by the
build that still memoized fitness values, so it pins that evaluation
stack's answers for the direct batch-kernel path, on both engines.

Regenerate (only when an answer is meant to change)::

    PYTHONPATH=src python tests/test_pinned_answers.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import emts5, emts10
from repro.platform import by_name
from repro.timemodels import AmdahlModel, SyntheticModel
from repro.workloads import generate_fft, generate_strassen

FIXTURE = Path(__file__).parent / "data" / "pinned_answers.json"

ALGORITHMS = {
    "emts5": lambda: emts5(),
    "emts10": lambda: emts10(),
    "islands5": lambda: emts10(islands=True),
}
GRAPHS = ("fft15", "fft39", "strassen")
PLATFORMS = ("chti", "grelon")
MODELS = {"amdahl": AmdahlModel, "synthetic": SyntheticModel}
SEEDS = (11, 12)


def _graph(kind: str, seed: int):
    if kind == "strassen":
        return generate_strassen(rng=seed)
    return generate_fft({"fft15": 4, "fft39": 8}[kind], rng=seed)


def cells():
    """Every (name, algorithm, graph, platform, model, seed) run."""
    return [
        (f"{a}/{g}/{p}/{m}/{s}", a, g, p, m, s)
        for a in ALGORITHMS
        for g in GRAPHS
        for p in PLATFORMS
        for m in MODELS
        for s in SEEDS
    ]


def answer(algorithm: str, graph: str, platform: str, model: str, seed: int):
    """The recorded answer of one run, in the fixture's JSON shape."""
    result = ALGORITHMS[algorithm]().schedule(
        _graph(graph, seed), by_name(platform), MODELS[model](), rng=seed
    )
    alloc = np.ascontiguousarray(result.allocation, dtype=np.int64)
    return {
        "makespan": float(result.makespan).hex(),
        "allocation_sha256": hashlib.sha256(alloc.tobytes()).hexdigest(),
        "generations": [
            [float(e.best).hex(), int(e.evaluations)]
            for e in result.log.entries
        ],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_cell(pinned):
    assert sorted(pinned) == sorted(name for name, *_ in cells())


@pytest.mark.parametrize(
    "name,algorithm,graph,platform,model,seed",
    cells(),
    ids=[c[0] for c in cells()],
)
def test_run_reproduces_pinned_answer(
    pinned, name, algorithm, graph, platform, model, seed
):
    assert answer(algorithm, graph, platform, model, seed) == pinned[name]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pinned_answers.py --write")
    rows = [
        f"  {json.dumps(name)}: {json.dumps(answer(*args), sort_keys=True)}"
        for name, *args in sorted(cells())
    ]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(rows)} runs to {FIXTURE}")
