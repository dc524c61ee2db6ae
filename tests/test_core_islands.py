"""Island-model EMTS: execution invariance, migration, checkpointing.

The island model's central contract: the decomposition is fixed at
``mu`` single-parent islands, so neither the kernel thread count nor
the kernel backend changes the result — same-seed runs are
bit-identical.  Ring migration and per-island RNG streams are
deterministic, checkpoints capture the island RNG states, and a
checkpoint written by the build that still had a shard count resumes
to that build's answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

import numpy as np
import pytest

from repro import emts5, emts10, grelon, SyntheticModel
from repro.core import EMTSConfig
from repro.core.checkpoint import (
    Checkpoint,
    load_checkpoint,
    verify_resumable,
)
from repro.core.config import emts5_config
from repro.core.islands import IslandStrategy, island_offspring_counts
from repro.exceptions import CheckpointError, ConfigurationError
from repro.testing import ChaosEvaluator, ChaosPlan
from repro.timemodels import TimeTable
from repro.workloads import generate_fft

PTG = generate_fft(4, rng=7)
CLUSTER = grelon()
MODEL = SyntheticModel()
SEED = 20110926


@pytest.fixture(scope="module")
def classic_result():
    return emts5().schedule(PTG, CLUSTER, MODEL, rng=SEED)


@pytest.fixture(scope="module")
def island_result():
    return emts5(islands=True).schedule(PTG, CLUSTER, MODEL, rng=SEED)


def _assert_identical(a, b):
    assert a.makespan == b.makespan
    assert np.array_equal(a.allocation, b.allocation)
    assert list(a.log.best_trajectory()) == list(b.log.best_trajectory())
    assert a.evaluations == b.evaluations


# ----------------------------------------------------------------------
# offspring split


def test_offspring_counts_sum_and_spread():
    counts = island_offspring_counts(25, 5)
    assert counts == [5, 5, 5, 5, 5]
    counts = island_offspring_counts(27, 5)
    assert counts == [6, 6, 5, 5, 5]
    assert sum(island_offspring_counts(100, 7)) == 100
    assert max(island_offspring_counts(100, 7)) - min(
        island_offspring_counts(100, 7)
    ) <= 1


def test_strategy_validation():
    from repro.ea import UniformIntegerMutation

    op = UniformIntegerMutation(1, CLUSTER.num_processors)
    with pytest.raises(ConfigurationError):
        IslandStrategy(0, 5, op)
    with pytest.raises(ConfigurationError):
        IslandStrategy(5, 4, op)  # lam < mu
    with pytest.raises(ConfigurationError):
        IslandStrategy(5, 25, op, migration_interval=0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=-1)
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=True, migration_interval=0)
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=True, selection="comma")
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=True, mu=10, lam=5)


@pytest.mark.parametrize("islands", [2, 1, 0])
def test_config_islands_is_a_flag(islands):
    """``islands`` was a shard count; only ``True``/``False`` remain."""
    with pytest.raises(ConfigurationError, match="True or False"):
        EMTSConfig(islands=islands)


# ----------------------------------------------------------------------
# thread-count / backend invariance


def test_worker_count_invariance(island_result, monkeypatch):
    """Two OpenMP threads in the batch kernel give the same run."""
    monkeypatch.setenv("REPRO_CKERNEL_THREADS", "2")
    threaded = emts5(islands=True).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    _assert_identical(island_result, threaded)


def _use_fallback_engine(monkeypatch):
    """Run the rest of the test on the reference (``numpy``) engine."""
    from repro.mapping import _cscheduler

    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    monkeypatch.setattr(_cscheduler, "_tried", True)
    monkeypatch.setattr(_cscheduler, "_ffi", None)
    monkeypatch.setattr(_cscheduler, "_lib", None)


def test_numpy_backend_invariance(island_result, monkeypatch):
    """REPRO_NO_CKERNEL=1 (numpy scheduling path) is bit-identical."""
    _use_fallback_engine(monkeypatch)
    fallback = emts5(islands=True).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    _assert_identical(island_result, fallback)


def test_island_mode_is_a_different_trajectory(
    classic_result, island_result
):
    """islands=False (panmictic) and island mode are both deterministic but
    follow different search trajectories; the island best can never be
    worse than its heuristic seeds (plus selection is elitist)."""
    assert island_result.makespan <= min(
        island_result.seed_makespans.values()
    )
    # determinism of each mode separately
    again = emts5(islands=True).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    _assert_identical(island_result, again)


def test_migration_interval_changes_trajectory():
    every = emts5(islands=True).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    never = emts5(islands=True, migration_interval=100).schedule(
        PTG, CLUSTER, MODEL, rng=SEED
    )
    # both deterministic; isolation without migration may only do worse
    # or equal on this seeded, elitist setup
    assert never.makespan >= every.makespan
    again = emts5(islands=True, migration_interval=100).schedule(
        PTG, CLUSTER, MODEL, rng=SEED
    )
    _assert_identical(never, again)


# ----------------------------------------------------------------------
# checkpoint / resume


def test_island_checkpoint_resume_bit_identical(
    island_result, tmp_path
):
    path = tmp_path / "island.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    partial = emts5(islands=True).schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    assert partial.interrupted
    resumed = emts5(islands=True).schedule(
        PTG, CLUSTER, MODEL, rng=SEED, resume_from=path
    )
    assert not resumed.interrupted
    _assert_identical(island_result, resumed)


#: A mid-run island-mode EMTS10 checkpoint (FFT-39 on Grelon, synthetic
#: model, seed 5, stopped after generation 3) written by the build whose
#: ``islands`` was a shard count (here 1) and whose island model had its
#: own generation loop.
SHARD_ERA_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "data", "island_run_checkpoint.json"
)
#: That build's uninterrupted answer for the same run: makespan,
#: SHA-256 of the allocation, and every generation's (best, evaluations).
SHARD_ERA_MAKESPAN = "0x1.f1e833a15d1e4p+6"
SHARD_ERA_ALLOCATION_SHA256 = (
    "175f707544635e4a7b294f35eb3216eb23f6cad93eba0cb693eaebcef51055c1"
)
SHARD_ERA_GENERATIONS = [
    ("0x1.82a1f94c5185bp+7", 10),
    ("0x1.0c887eb20fbc0p+7", 100),
    ("0x1.07e7ed5800847p+7", 100),
    ("0x1.0480bb3f3bb3bp+7", 100),
    ("0x1.01ec8000bcf1dp+7", 100),
    ("0x1.fefd0beb56262p+6", 100),
    ("0x1.f95597705a143p+6", 100),
    ("0x1.f656f36a6732fp+6", 100),
    ("0x1.f5726a5e665a2p+6", 100),
    ("0x1.f5726a5e665a2p+6", 100),
    ("0x1.f1e833a15d1e4p+6", 100),
]


def with_rejection_key(path, value, tmp_path):
    """A copy of a committed checkpoint whose ``use_rejection`` key (a
    switch when the checkpoint was written, ignored now) reads ``value``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["config"]["use_rejection"] is False
    doc["config"]["use_rejection"] = value
    copy = tmp_path / os.path.basename(path)
    copy.write_text(json.dumps(doc), encoding="utf-8")
    return copy


@pytest.mark.parametrize(
    "engine,rejection",
    [
        pytest.param("default", False, id="default"),
        pytest.param("fallback", False, id="fallback"),
        pytest.param("default", True, id="default-rejection-on"),
        pytest.param("fallback", True, id="fallback-rejection-on"),
    ],
)
def test_shard_era_island_checkpoint_resumes_to_same_answer(
    engine, rejection, monkeypatch, tmp_path
):
    """Either recorded ``use_rejection`` value resumes to the answer."""
    if engine == "fallback":
        _use_fallback_engine(monkeypatch)
    path = with_rejection_key(SHARD_ERA_CHECKPOINT, rejection, tmp_path)
    ckpt = load_checkpoint(path)
    assert ckpt.generation == 3
    assert ckpt.config["island_mode"] is True
    ptg = generate_fft(8, rng=5)

    def run(**kwargs):
        return emts10(islands=True).schedule(
            ptg, CLUSTER, MODEL, rng=5, **kwargs
        )

    uninterrupted = run()
    resumed = run(resume_from=path)
    for result in (uninterrupted, resumed):
        alloc = np.ascontiguousarray(result.allocation, dtype=np.int64)
        assert result.makespan.hex() == SHARD_ERA_MAKESPAN
        assert (
            hashlib.sha256(alloc.tobytes()).hexdigest()
            == SHARD_ERA_ALLOCATION_SHA256
        )
        assert [
            (e.best.hex(), e.evaluations) for e in result.log.entries
        ] == SHARD_ERA_GENERATIONS
    assert not resumed.interrupted


def test_island_checkpoint_records_rng_streams(tmp_path):
    path = tmp_path / "island.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    emts5(islands=True).schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    ckpt = load_checkpoint(path)
    assert ckpt.island_rng_states is not None
    assert len(ckpt.island_rng_states) == 5  # EMTS5 mu
    rngs = ckpt.restore_island_rngs()
    assert len(rngs) == 5
    assert all(isinstance(g, np.random.Generator) for g in rngs)
    assert ckpt.config["island_mode"] is True


def test_classic_checkpoint_refuses_island_resume(tmp_path):
    """A panmictic checkpoint cannot seed an island-mode run (and the
    reverse direction is refused by the semantic-config gate)."""
    path = tmp_path / "classic.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    emts5().schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    ckpt = load_checkpoint(path)
    assert ckpt.island_rng_states is None
    assert ckpt.restore_island_rngs() is None
    assert ckpt.config["island_mode"] is False
    with pytest.raises(CheckpointError):
        emts5(islands=True).schedule(
            PTG, CLUSTER, MODEL, rng=SEED, resume_from=path
        )


def test_semantic_config_defaults_accept_pre_island_checkpoints(
    tmp_path
):
    """Checkpoints written before the island fields existed must stay
    resumable: missing keys compare against the documented defaults."""
    path = tmp_path / "old.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    emts5().schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    ckpt = load_checkpoint(path)
    # simulate a pre-island checkpoint: drop the new semantic keys
    stripped = {
        k: v
        for k, v in ckpt.config.items()
        if k not in ("island_mode", "migration_interval")
    }
    old = Checkpoint(**{**ckpt.__dict__, "config": stripped})
    table = TimeTable.build(MODEL, PTG, CLUSTER)
    verify_resumable(old, emts5_config(), PTG, table)  # must not raise
    # ... but an island-mode run still refuses the stripped checkpoint
    with pytest.raises(CheckpointError):
        verify_resumable(
            old, emts5_config().with_updates(islands=True), PTG, table
        )


# ----------------------------------------------------------------------
# annealing horizon


def _island_initial():
    from repro.ea import Individual

    return [
        Individual(genome=np.full(6, i + 1, dtype=np.int64), origin="seed")
        for i in range(2)
    ]


def _distance(genome):
    return float(np.abs(genome - 4).sum())


def test_horizon_from_generation_limit_inside_anyof():
    # U used to default to 10 here, and the Eq. 1 operator then raised
    # at generation 11
    from repro.core import AllocationMutation
    from repro.ea import AnyOf, GenerationLimit, TimeBudget

    strategy = IslandStrategy(2, 4, AllocationMutation(P=8))
    result = strategy.evolve(
        _island_initial(),
        _distance,
        island_rngs=[np.random.default_rng(i) for i in range(2)],
        termination=AnyOf(GenerationLimit(15), TimeBudget(100.0)),
    )
    assert result.generations == 15


def test_no_horizon_raises_before_first_generation():
    from repro.core import AllocationMutation
    from repro.ea import StagnationLimit

    calls = []

    def counting(genome):
        calls.append(1)
        return _distance(genome)

    strategy = IslandStrategy(2, 4, AllocationMutation(P=8))
    with pytest.raises(ConfigurationError, match="annealing horizon"):
        strategy.evolve(
            _island_initial(),
            counting,
            island_rngs=[np.random.default_rng(i) for i in range(2)],
            termination=StagnationLimit(3),
        )
    assert calls == []
