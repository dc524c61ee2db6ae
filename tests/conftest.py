"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import PTG, PTGBuilder, Task, chain, fork_join
from repro.obs import reset_logging
from repro.platform import Cluster, chti, grelon
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.workloads import DaggenParams, generate_daggen, generate_fft


@pytest.fixture(autouse=True)
def _reset_repro_logging():
    """Undo ``configure_logging`` after every test.

    ``cli.main`` configures the ``repro`` logger with
    ``propagate = False``; left in place, later tests' ``caplog`` would
    see none of the package's records.
    """
    yield
    reset_logging()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def diamond_ptg() -> PTG:
    """A 4-node diamond: a -> {b, c} -> d, with distinct works."""
    b = PTGBuilder("diamond")
    a = b.add_task("a", work=1e9, alpha=0.1)
    t_b = b.add_task("b", work=2e9, alpha=0.05)
    t_c = b.add_task("c", work=4e9, alpha=0.2)
    d = b.add_task("d", work=1e9, alpha=0.0)
    b.add_edges([(a, t_b), (a, t_c), (t_b, d), (t_c, d)])
    return b.build()


@pytest.fixture
def chain_ptg() -> PTG:
    """A 3-task chain."""
    return chain([1e9, 2e9, 3e9], name="chain3")


@pytest.fixture
def fork_join_ptg() -> PTG:
    """Head -> 6 parallel branches -> tail."""
    return fork_join([1e9] * 6, head_work=1e8, tail_work=1e8)


@pytest.fixture
def single_task_ptg() -> PTG:
    """Degenerate single-node PTG (edge cases)."""
    return PTG([Task("only", work=4.3e9)], [], name="single")


@pytest.fixture
def fft8_ptg() -> PTG:
    """An FFT PTG with 39 tasks (fixed seed)."""
    return generate_fft(8, rng=777)


@pytest.fixture
def irregular_ptg() -> PTG:
    """A mid-size irregular random PTG (fixed seed)."""
    return generate_daggen(
        DaggenParams(
            num_tasks=40, width=0.5, regularity=0.2, density=0.5, jump=2
        ),
        rng=778,
    )


@pytest.fixture
def small_cluster() -> Cluster:
    """A tiny 4-processor cluster for hand-checkable schedules."""
    return Cluster(name="tiny", num_processors=4, speed_gflops=1.0)


@pytest.fixture
def chti_cluster() -> Cluster:
    """The paper's Chti platform (20 x 4.3 GFLOPS)."""
    return chti()


@pytest.fixture
def grelon_cluster() -> Cluster:
    """The paper's Grelon platform (120 x 3.1 GFLOPS)."""
    return grelon()


@pytest.fixture
def amdahl_table(diamond_ptg, chti_cluster) -> TimeTable:
    """Model 1 time table for the diamond on Chti."""
    return TimeTable.build(AmdahlModel(), diamond_ptg, chti_cluster)


@pytest.fixture
def synthetic_table(fft8_ptg, grelon_cluster) -> TimeTable:
    """Model 2 time table for the FFT-8 PTG on Grelon."""
    return TimeTable.build(SyntheticModel(), fft8_ptg, grelon_cluster)
