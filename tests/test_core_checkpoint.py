"""Checkpoint/resume: round-trip fidelity, atomicity, validation, and
the bit-identical interrupt/resume contract of ``EMTS.schedule``."""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro import emts5, grelon, SyntheticModel
from repro.core import (
    Checkpoint,
    load_checkpoint,
    problem_fingerprint,
    save_checkpoint,
    verify_resumable,
)
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    semantic_config,
)
from repro.core.config import emts5_config
from repro.exceptions import CheckpointError, ConfigurationError
from repro.timemodels import TimeTable
from repro.workloads import generate_fft

PTG = generate_fft(4, rng=7)
CLUSTER = grelon()
MODEL = SyntheticModel()


@pytest.fixture
def table() -> TimeTable:
    return TimeTable.build(MODEL, PTG, CLUSTER)


def run_baseline():
    return emts5().schedule(PTG, CLUSTER, MODEL, rng=7)


class CountdownEvent:
    """Event-like flag that sets itself after ``n`` ``is_set`` checks.

    Termination is checked once per generation boundary, so this stops
    an EMTS run after a deterministic number of generations.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls > self.n

    def set(self) -> None:
        self.n = -1


# ----------------------------------------------------------------------
# serialization round trip


def test_checkpoint_roundtrip_fields(tmp_path, table):
    run = emts5()
    path = tmp_path / "run.ckpt"
    result = run.schedule(
        PTG, CLUSTER, MODEL, rng=7, checkpoint_path=path
    )
    ckpt = load_checkpoint(path)
    assert ckpt.completed
    assert ckpt.generation == run.config.generations
    assert ckpt.seed_makespans == result.seed_makespans
    assert ckpt.problem == problem_fingerprint(PTG, table)
    assert len(ckpt.population) == run.config.mu
    log = ckpt.restore_log()
    assert log.generations == result.log.generations
    assert list(log.best_trajectory()) == list(
        result.log.best_trajectory()
    )
    pop = ckpt.restore_population()
    assert all(ind.evaluated for ind in pop)
    stats = ckpt.restore_eval_stats()
    assert stats.evaluations == result.evaluation_stats.evaluations


def test_checkpoint_file_is_json_with_format_header(tmp_path):
    path = tmp_path / "run.ckpt"
    emts5().schedule(PTG, CLUSTER, MODEL, rng=7, checkpoint_path=path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == CHECKPOINT_FORMAT
    assert doc["version"] == CHECKPOINT_VERSION


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "run.ckpt"
    emts5().schedule(PTG, CLUSTER, MODEL, rng=7, checkpoint_path=path)
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []


def test_save_checkpoint_unwritable_path_raises(tmp_path, table):
    ckpt = load_checkpoint(
        save_checkpoint(_tiny_checkpoint(table), tmp_path / "ok.ckpt")
    )
    missing_dir = tmp_path / "no" / "such" / "dir" / "run.ckpt"
    with pytest.raises(CheckpointError, match="could not write"):
        save_checkpoint(ckpt, missing_dir)


def _tiny_checkpoint(table) -> Checkpoint:
    cfg = emts5_config()
    rng = np.random.default_rng(0)
    from repro.ea import EvolutionLog, GenerationStats, Individual

    log = EvolutionLog()
    log.append(
        GenerationStats.from_population(
            0,
            [Individual(genome=np.ones(PTG.num_tasks, dtype=np.int64),
                        fitness=1.0)],
            1,
            0.0,
        )
    )
    return Checkpoint.capture(
        cfg,
        PTG,
        table,
        generation=0,
        rng=rng,
        population=[
            Individual(
                genome=np.ones(PTG.num_tasks, dtype=np.int64),
                fitness=1.0,
            )
        ],
        log=log,
        seed_makespans={"mcpa": 1.0},
    )


# ----------------------------------------------------------------------
# validation


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError, match="could not read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_load_corrupted_json_raises(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text('{"format": "repro-emts-che', encoding="utf-8")
    with pytest.raises(CheckpointError, match="corrupted"):
        load_checkpoint(path)


def test_load_wrong_format_raises(tmp_path):
    path = tmp_path / "other.ckpt"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(CheckpointError, match="not an EMTS checkpoint"):
        load_checkpoint(path)


def test_load_unsupported_version_raises(tmp_path, table):
    path = tmp_path / "v99.ckpt"
    doc = _tiny_checkpoint(table).to_dict()
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_verify_resumable_reports_all_mismatches(tmp_path, table):
    ckpt = _tiny_checkpoint(table)
    other_cfg = emts5_config().with_updates(
        mu=7, generations=9, name="emts5"
    )
    with pytest.raises(CheckpointError) as err:
        verify_resumable(ckpt, other_cfg, PTG, table)
    message = str(err.value)
    assert "config.mu" in message
    assert "config.generations" in message


def test_verify_resumable_rejects_different_problem(table):
    ckpt = _tiny_checkpoint(table)
    other_ptg = generate_fft(8, rng=7)
    other_table = TimeTable.build(MODEL, other_ptg, CLUSTER)
    with pytest.raises(CheckpointError, match="problem\\."):
        verify_resumable(ckpt, emts5_config(), other_ptg, other_table)


def test_verify_resumable_rejects_completed_run(tmp_path):
    path = tmp_path / "run.ckpt"
    emts5().schedule(PTG, CLUSTER, MODEL, rng=7, checkpoint_path=path)
    with pytest.raises(CheckpointError, match="completed"):
        emts5().schedule(PTG, CLUSTER, MODEL, rng=7, resume_from=path)


def test_engine_knobs_are_not_fingerprinted(tmp_path):
    """A serial run's checkpoint resumes under different engine config."""
    path = tmp_path / "run.ckpt"
    stop = CountdownEvent(2)
    emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7,
        checkpoint_path=path, stop_event=stop,
    )
    baseline = run_baseline()
    resumed = emts5(verify="full").schedule(
        PTG, CLUSTER, MODEL, rng=7, resume_from=path
    )
    assert resumed.makespan == baseline.makespan


# ----------------------------------------------------------------------
# interrupt / resume bit-identity


def test_interrupt_and_resume_is_bit_identical(tmp_path):
    baseline = run_baseline()
    path = tmp_path / "run.ckpt"
    stop = CountdownEvent(2)
    partial = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7,
        checkpoint_path=path, stop_event=stop,
    )
    assert partial.interrupted
    assert partial.log.generations - 1 < baseline.log.generations - 1

    resumed = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7, resume_from=path
    )
    assert not resumed.interrupted
    assert resumed.makespan == baseline.makespan
    assert np.array_equal(resumed.allocation, baseline.allocation)
    assert list(resumed.log.best_trajectory()) == list(
        baseline.log.best_trajectory()
    )
    assert resumed.evaluations == baseline.evaluations
    assert resumed.seed_makespans == baseline.seed_makespans


def test_double_interrupt_then_resume_is_bit_identical(tmp_path):
    """Two interruption cycles still converge to the same answer."""
    baseline = run_baseline()
    path = tmp_path / "run.ckpt"
    emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7,
        checkpoint_path=path, stop_event=CountdownEvent(1),
    )
    second = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7,
        checkpoint_path=path, resume_from=path,
        stop_event=CountdownEvent(2),
    )
    assert second.interrupted
    final = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7, resume_from=path
    )
    assert final.makespan == baseline.makespan
    assert final.evaluations == baseline.evaluations


def test_resume_accumulates_elapsed_and_eval_stats(tmp_path):
    baseline = run_baseline()
    path = tmp_path / "run.ckpt"
    emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7,
        checkpoint_path=path, stop_event=CountdownEvent(2),
    )
    ckpt = load_checkpoint(path)
    resumed = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7, resume_from=path
    )
    assert resumed.elapsed_seconds >= ckpt.elapsed_seconds
    stats = resumed.evaluation_stats
    assert stats.evaluations == baseline.evaluation_stats.evaluations


def test_max_wall_time_interrupts_and_flags(tmp_path):
    result = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7, max_wall_time=1e-6
    )
    assert result.interrupted
    # the initial population is always evaluated before stopping
    assert result.log.generations >= 1
    assert result.makespan <= min(result.seed_makespans.values()) + 1e-12


def test_max_wall_time_must_be_positive():
    with pytest.raises(ConfigurationError, match="max_wall_time"):
        emts5().schedule(PTG, CLUSTER, MODEL, rng=7, max_wall_time=0)


def test_stop_event_threading_event_supported():
    event = threading.Event()
    event.set()
    result = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7, stop_event=event
    )
    assert result.interrupted
    assert result.log.generations - 1 == 0


def test_sigint_triggers_graceful_stop_with_checkpoint(tmp_path):
    """A SIGINT mid-run ends at a generation boundary, resumably.

    The stop event doubles as a probe: its second ``is_set`` check
    (i.e. after generation 1 completes) sends SIGINT to this process;
    the handler installed by ``handle_signals=True`` sets the event and
    the run stops at the following boundary.
    """
    import signal as _signal

    path = tmp_path / "run.ckpt"
    event = threading.Event()

    class SignalingEvent:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def is_set(self):
            self.calls += 1
            if self.calls == 2:
                os.kill(os.getpid(), _signal.SIGINT)
            return self.inner.is_set()

        def set(self):
            self.inner.set()

    previous = _signal.getsignal(_signal.SIGINT)
    result = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7,
        checkpoint_path=path,
        handle_signals=True,
        stop_event=SignalingEvent(event),
    )
    assert result.interrupted
    assert event.is_set()
    assert result.log.generations - 1 < emts5().config.generations
    # the previous SIGINT handler was restored on the way out
    assert _signal.getsignal(_signal.SIGINT) is previous

    baseline = run_baseline()
    resumed = emts5().schedule(
        PTG, CLUSTER, MODEL, rng=7, resume_from=path
    )
    assert resumed.makespan == baseline.makespan


# ----------------------------------------------------------------------
# per-run invariants and checkpoints of builds that memoized fitness

#: A mid-run EMTS10 checkpoint (FFT-5 on Chti, synthetic model, seed 5,
#: stopped after generation 4) written by the build that still cached
#: fitness values: its eval_stats and log rows carry cache counters.
MEMOIZED_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "data", "memoized_run_checkpoint.json"
)
#: That build's uninterrupted answer for the same run.
MEMOIZED_RUN_MAKESPAN = "0x1.780f020613925p+6"


def test_checkpointed_run_fingerprints_problem_once(
    tmp_path, monkeypatch, table
):
    """The problem identity is fixed per run: one fingerprint, shared
    by every journaled generation."""
    import repro.core.checkpoint as checkpoint_module
    import repro.core.emts as emts_module

    calls = []

    def counting(ptg, table):
        calls.append(1)
        return problem_fingerprint(ptg, table)

    monkeypatch.setattr(checkpoint_module, "problem_fingerprint", counting)
    monkeypatch.setattr(emts_module, "problem_fingerprint", counting)
    path = tmp_path / "run.ckpt"
    emts5().schedule(PTG, CLUSTER, MODEL, rng=7, checkpoint_path=path)
    assert len(calls) == 1
    ckpt = load_checkpoint(path)
    assert ckpt.problem == problem_fingerprint(PTG, table)
    assert ckpt.config == semantic_config(emts5().config)


def test_checkpoint_with_cache_counters_resumes_to_same_answer(tmp_path):
    """The checkpoint resumes to its build's answer, also with its
    ignored ``use_rejection`` key flipped to what runs of
    ``emts10(use_rejection=True)`` wrote."""
    from repro import chti, emts10

    with open(MEMOIZED_CHECKPOINT, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["eval_stats"]["cache_hits"] > 0
    assert any(row["cache_hits"] > 0 for row in doc["log_rows"])
    assert doc["config"]["use_rejection"] is False
    doc["config"]["use_rejection"] = True
    flipped = tmp_path / "rejection_on.json"
    flipped.write_text(json.dumps(doc), encoding="utf-8")

    ptg = generate_fft(2, rng=5)
    uninterrupted = emts10().schedule(ptg, chti(), SyntheticModel(), rng=5)
    for path in (MEMOIZED_CHECKPOINT, flipped):
        resumed = emts10().schedule(
            ptg, chti(), SyntheticModel(), rng=5, resume_from=path,
        )
        assert resumed.makespan.hex() == MEMOIZED_RUN_MAKESPAN
        assert resumed.makespan == uninterrupted.makespan
        assert np.array_equal(resumed.allocation, uninterrupted.allocation)
        assert resumed.log.best_trajectory().tolist() == (
            uninterrupted.log.best_trajectory().tolist()
        )
        assert resumed.evaluations == uninterrupted.evaluations
