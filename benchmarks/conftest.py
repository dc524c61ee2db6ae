"""Shared configuration for the benchmark/experiment suite.

Every paper artifact (Figures 1-6 and the Section V runtime table) has
one module here that (a) regenerates the artifact's data, (b) asserts
the paper's qualitative findings hold, (c) benchmarks the representative
computational kernel with pytest-benchmark, and (d) writes the rendered
artifact into ``results/``.

Corpus sizes are controlled by the ``REPRO_BENCH_SCALE`` environment
variable (default: a small smoke scale so the suite completes in
minutes).  ``REPRO_BENCH_SCALE=1.0`` reproduces the paper's full corpus
(400 FFT + 100 Strassen + layered/irregular PTGs on both platforms) and
takes on the order of an hour.
"""

from __future__ import annotations

import os
from pathlib import Path

#: Root seed for every benchmark experiment (reproducible).
BENCH_SEED = 20110926

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def bench_scale(default: float) -> float:
    """Corpus scale from the environment, else ``default``."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    scale = float(raw)
    if not (0.0 < scale <= 1.0):
        raise ValueError(
            f"REPRO_BENCH_SCALE must lie in (0, 1], got {raw}"
        )
    return scale


def write_result(name: str, content: str) -> Path:
    """Persist one rendered artifact under results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content, encoding="utf-8")
    return path
