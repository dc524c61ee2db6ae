"""Tests for the pluggable fitness-evaluation engine.

Covers the acceptance invariants of the evaluator subsystem: the batch
backend returns the reference mapper's makespans, bit-identical for any
kernel thread count, every submitted genome is scored, the rejection
bound keeps working, and malformed input raises typed errors.
"""

import numpy as np
import pytest

from repro.core import (
    EMTSConfig,
    SerialEvaluator,
    create_evaluator,
    emts5,
    emts10,
)
from repro.ea import EvolutionStrategy, Individual, UniformIntegerMutation
from repro.exceptions import AllocationError, ConfigurationError
from repro.mapping import makespan_of
from repro.platform import grelon
from repro.testing import Unbounded
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.workloads import generate_fft, generate_strassen


@pytest.fixture(scope="module")
def problem():
    """Strassen + Model 1 (Amdahl) on Grelon — the acceptance instance."""
    ptg = generate_strassen(rng=11)
    cluster = grelon()
    table = TimeTable.build(AmdahlModel(), ptg, cluster)
    return ptg, cluster, table


@pytest.fixture(scope="module")
def genomes(problem):
    ptg, cluster, table = problem
    rng = np.random.default_rng(5)
    return [
        rng.integers(
            1, cluster.num_processors + 1, size=ptg.num_tasks
        ).astype(np.int64)
        for _ in range(12)
    ]


class TestSerialEvaluator:
    def test_matches_makespan_of(self, problem, genomes):
        ptg, _, table = problem
        with SerialEvaluator(ptg, table) as ev:
            values = ev.evaluate(genomes)
        expected = [makespan_of(ptg, table, g) for g in genomes]
        assert values == expected

    def test_stats_counters(self, problem, genomes):
        ptg, _, table = problem
        ev = SerialEvaluator(ptg, table)
        ev.evaluate(genomes)
        ev.evaluate(genomes[:3])
        assert ev.stats.evaluations == len(genomes) + 3
        assert ev.stats.mapper_calls == len(genomes) + 3
        assert ev.stats.cache_hits == 0
        assert ev.stats.batches == 2
        assert ev.stats.wall_seconds > 0

    def test_abort_above_rejects(self, problem, genomes):
        ptg, _, table = problem
        ev = SerialEvaluator(ptg, table)
        exact = ev.evaluate(genomes)
        bound = sorted(exact)[len(exact) // 2]
        gated = ev.evaluate(genomes, abort_above=bound)
        for e, g in zip(exact, gated):
            if e >= bound:
                assert g == float("inf")
            else:
                assert g == e

    def test_single_genome_call(self, problem, genomes):
        ptg, _, table = problem
        ev = SerialEvaluator(ptg, table)
        assert ev(genomes[0]) == makespan_of(ptg, table, genomes[0])

    def test_empty_batch(self, problem):
        ptg, _, table = problem
        ev = SerialEvaluator(ptg, table)
        assert ev.evaluate([]) == []
        assert ev.stats.evaluations == 0

    def test_table_of_another_ptg_rejected(self):
        """A table built for a different graph would mix one graph's
        edges with the other's task times."""
        ptg = generate_fft(4, rng=2)
        other = generate_fft(4, rng=1)
        table = TimeTable.build(AmdahlModel(), other, grelon())
        with pytest.raises(ConfigurationError, match="graphs differ"):
            SerialEvaluator(ptg, table)

    def test_ragged_batch_raises_allocation_error(self, problem, genomes):
        ptg, _, table = problem
        ragged = [genomes[0], genomes[1][:-1]]
        ev = SerialEvaluator(ptg, table)
        with pytest.raises(AllocationError):
            ev.evaluate(ragged)
        with pytest.raises(AllocationError):
            ev.evaluate_batch(ragged)
        with pytest.raises(AllocationError):
            create_evaluator(ptg, table, verify="full").evaluate(ragged)


class TestCreateEvaluator:
    def test_serial_backend(self, problem):
        ptg, _, table = problem
        assert isinstance(create_evaluator(ptg, table), SerialEvaluator)


def _run_digest(result):
    """Makespan bits, allocation and per-generation (best, evaluations)."""
    return (
        float.hex(result.makespan),
        result.allocation.tolist(),
        [(e.best, e.evaluations) for e in result.log.entries],
    )


class TestDeterminismAcrossBackends:
    """The batch kernel on one thread and on two OpenMP threads gives
    bit-identical EMTS10 runs (``REPRO_CKERNEL_THREADS``)."""

    @staticmethod
    def _identical(problem, monkeypatch, wrapper=None, **overrides):
        ptg, cluster, table = problem
        digests = []
        for threads in ("1", "2"):
            monkeypatch.setenv("REPRO_CKERNEL_THREADS", threads)
            result = emts10(**overrides).schedule(
                ptg, cluster, table, rng=7, evaluator_wrapper=wrapper
            )
            digests.append(_run_digest(result))
        assert digests[0] == digests[1]
        return digests[0]

    def test_strassen_model1_identical(self, problem, monkeypatch):
        self._identical(problem, monkeypatch)

    def test_rejection_identical(self, problem, monkeypatch):
        """Plus selection bounds every batch; the run equals the one
        that maps every offspring to the end, on either thread count."""
        bounded = self._identical(problem, monkeypatch)
        assert bounded == self._identical(
            problem, monkeypatch, wrapper=Unbounded
        )

    def test_islands_identical(self, problem, monkeypatch):
        self._identical(problem, monkeypatch, islands=True)


class TestEMTSIntegration:
    def test_evaluation_stats_populated(self):
        ptg = generate_fft(4, rng=3)
        cluster = grelon()
        table = TimeTable.build(SyntheticModel(), ptg, cluster)
        result = emts5().schedule(ptg, cluster, table, rng=3)
        stats = result.evaluation_stats
        assert stats is not None
        # 3 seed baselines + 5 initial + 5 generations x 25 offspring
        assert stats.evaluations == 3 + 5 + 5 * 25
        # every submitted genome reaches the mapper
        assert stats.mapper_calls == stats.evaluations
        assert stats.cache_hits == 0
        # the log counts the EA's genomes, not the seed baselines
        assert result.evaluations == 5 + 5 * 25

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EMTSConfig(verify="sometimes")


class TestStrategyBatchPath:
    """The EA engine accepts any BatchFitness, not just our backends."""

    def test_batch_evaluator_equals_callable(self):
        target = np.array([3, 7, 2, 9, 5], dtype=np.int64)

        def fitness(genome):
            return float(np.abs(genome - target).sum())

        class BatchWrapper:
            def evaluate_batch(self, genome_block, abort_above=None):
                return [fitness(g) for g in genome_block]

        init = [
            Individual(
                genome=np.full(5, i + 1, dtype=np.int64),
                origin=f"seed{i}",
            )
            for i in range(3)
        ]
        strat = EvolutionStrategy(
            mu=3,
            lam=12,
            mutation=UniformIntegerMutation(low=1, high=10, rate=0.4),
        )
        r_callable = strat.evolve(
            init,
            fitness,
            np.random.default_rng(4),
            total_generations=6,
        )
        r_batch = strat.evolve(
            init,
            BatchWrapper(),
            np.random.default_rng(4),
            total_generations=6,
        )
        assert r_batch.best_fitness == r_callable.best_fitness
        assert np.array_equal(
            r_batch.best.genome, r_callable.best.genome
        )

    def test_batch_size_mismatch_rejected(self):
        class Broken:
            def evaluate_batch(self, genome_block, abort_above=None):
                return [1.0]  # wrong length

        init = [
            Individual(genome=np.ones(3, dtype=np.int64)),
            Individual(genome=np.zeros(3, dtype=np.int64)),
        ]
        strat = EvolutionStrategy(
            mu=2,
            lam=4,
            mutation=UniformIntegerMutation(low=0, high=3, rate=0.5),
        )
        with pytest.raises(ConfigurationError, match="returned 1"):
            strat.evolve(
                init,
                Broken(),
                np.random.default_rng(0),
                total_generations=2,
            )

    def test_generation_log_has_no_cache_column(self, problem):
        """Nothing is cached, so the log carries no hit counts."""
        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=31)
        rows = result.log.to_rows()
        assert all("cache_hits" not in row for row in rows)
        assert "hits" not in str(result.log).splitlines()[0]


class TestEvaluateBatch:
    """Population-at-once blocks: one call, identical results."""

    def test_serial_block_matches_list(self, problem, genomes):
        ptg, _, table = problem
        block = np.stack(genomes)
        with SerialEvaluator(ptg, table) as ev:
            assert ev.evaluate_batch(block) == ev.evaluate(genomes)
            assert ev.stats.batches == 2

    def test_block_shape_validated(self, problem, genomes):
        from repro.exceptions import AllocationError

        ptg, _, table = problem
        with SerialEvaluator(ptg, table) as ev:
            with pytest.raises(AllocationError, match="shape"):
                ev.evaluate_batch(genomes[0])  # 1-D
            assert ev.evaluate_batch(
                np.empty((0, ptg.num_tasks), dtype=np.int64)
            ) == []

    def test_cache_hit_rate_gauge_in_run_metrics(self, problem):
        from repro.obs import run_metrics

        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=31)
        snap = run_metrics(result).snapshot()
        # the documented metric stays, and reads 0: nothing is cached
        assert snap["emts.cache_hit_rate"]["value"] == 0.0
        assert snap["emts.cache_hits"]["value"] == 0
