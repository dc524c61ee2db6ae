"""Tests for the pluggable fitness-evaluation engine.

Covers the acceptance invariants of the evaluator subsystem: every
backend returns bit-identical makespans (serial vs. process pool),
every submitted genome is scored, the rejection bound keeps working
when shipped to worker processes, and worker-count edge cases (0, 1,
> cpu_count) behave sensibly.
"""

import os

import numpy as np
import pytest

from repro.core import (
    EMTSConfig,
    ProcessPoolEvaluator,
    SerialEvaluator,
    create_evaluator,
    emts5,
)
from repro.ea import EvolutionStrategy, Individual, UniformIntegerMutation
from repro.exceptions import ConfigurationError
from repro.mapping import makespan_of
from repro.platform import grelon
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


class TestProcessPoolEvaluator:
    def test_workers_zero_rejected(self, problem):
        ptg, _, table = problem
        with pytest.raises(ConfigurationError):
            ProcessPoolEvaluator(ptg, table, workers=0)

    def test_matches_serial_in_order(self, problem, genomes):
        ptg, _, table = problem
        expected = [makespan_of(ptg, table, g) for g in genomes]
        with ProcessPoolEvaluator(ptg, table, workers=2) as ev:
            values = ev.evaluate(genomes)
        assert values == expected

    def test_more_workers_than_cores(self, problem, genomes):
        workers = (os.cpu_count() or 1) + 2
        ptg, _, table = problem
        with ProcessPoolEvaluator(
            ptg, table, workers=workers
        ) as ev:
            values = ev.evaluate(genomes[:4])
        assert values == [
            makespan_of(ptg, table, g) for g in genomes[:4]
        ]

    def test_abort_bound_applied_per_chunk(self, problem, genomes):
        """The rejection bound must reach the workers with every
        dispatched chunk — parallelism must not disable the paper's
        rejection strategy."""
        ptg, _, table = problem
        exact = [makespan_of(ptg, table, g) for g in genomes]
        bound = sorted(exact)[len(exact) // 2]
        with ProcessPoolEvaluator(
            ptg, table, workers=2, chunk_size=3
        ) as ev:
            gated = ev.evaluate(genomes, abort_above=bound)
        serial_gated = [
            makespan_of(ptg, table, g, abort_above=bound)
            for g in genomes
        ]
        assert gated == serial_gated
        assert float("inf") in gated  # the bound actually rejected

    def test_pool_is_reusable_across_batches(self, problem, genomes):
        ptg, _, table = problem
        with ProcessPoolEvaluator(ptg, table, workers=2) as ev:
            a = ev.evaluate(genomes[:3])
            b = ev.evaluate(genomes[:3])
        assert a == b
        assert ev.stats.batches == 2


class TestCreateEvaluator:
    def test_workers_zero_and_one_are_serial(self, problem):
        ptg, _, table = problem
        for workers in (0, 1):
            ev = create_evaluator(ptg, table, workers=workers)
            assert isinstance(ev, SerialEvaluator)

    def test_pool_backend_selected(self, problem):
        ptg, _, table = problem
        ev = create_evaluator(ptg, table, workers=2)
        assert isinstance(ev, ProcessPoolEvaluator)
        ev.close()

    def test_negative_workers_rejected(self, problem):
        ptg, _, table = problem
        with pytest.raises(ConfigurationError):
            create_evaluator(ptg, table, workers=-1)


class TestDeterminismAcrossBackends:
    """Acceptance: serial and pool(4) runs are bit-identical."""

    def test_strassen_model1_identical(self, problem):
        ptg, cluster, table = problem
        serial = emts5().schedule(ptg, cluster, table, rng=7)
        pooled = emts5(workers=4).schedule(ptg, cluster, table, rng=7)
        assert serial.makespan == pooled.makespan
        assert np.array_equal(serial.allocation, pooled.allocation)

    def test_rejection_plus_pool_identical(self, problem):
        ptg, cluster, table = problem
        plain = emts5().schedule(ptg, cluster, table, rng=13)
        fast = emts5(workers=2, use_rejection=True).schedule(
            ptg, cluster, table, rng=13
        )
        assert fast.makespan == plain.makespan
        assert np.array_equal(fast.allocation, plain.allocation)


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
        assert stats.cache_hits == stats.cache_misses == 0
        # the log counts the EA's genomes, not the seed baselines
        assert result.evaluations == 5 + 5 * 25

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EMTSConfig(workers=-2)


class TestStrategyBatchPath:
    """The EA engine accepts any BatchFitness, not just our backends."""

    def test_batch_evaluator_equals_callable(self):
        target = np.array([3, 7, 2, 9, 5], dtype=np.int64)

        def fitness(genome):
            return float(np.abs(genome - target).sum())

        class BatchWrapper:
            def evaluate(self, genomes, abort_above=None):
                return [fitness(g) for g in genomes]

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
            def evaluate(self, genomes, abort_above=None):
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

    def test_cache_hits_reach_generation_log(self, problem):
        """The log keeps its documented ``cache_hits`` key; it reads 0."""
        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=31)
        rows = result.log.to_rows()
        assert [row["cache_hits"] for row in rows] == [0] * len(rows)


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

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_pool_block_ships_shared_memory_slices(
        self, problem, genomes, mp_context
    ):
        """The pool publishes the block once (shared memory) and ships
        index slices; results equal serial, with zero retries."""
        ptg, _, table = problem
        block = np.stack(genomes)
        with SerialEvaluator(ptg, table) as serial:
            expected = serial.evaluate_batch(block)
        with ProcessPoolEvaluator(
            ptg, table, workers=2, chunk_size=4, mp_context=mp_context
        ) as pool:
            values = pool.evaluate_batch(block)
            assert values == expected
            assert pool.stats.retries == 0
            bound = sorted(expected)[len(expected) // 2]
            gated = pool.evaluate_batch(block, abort_above=bound)
        with SerialEvaluator(ptg, table) as serial:
            assert gated == serial.evaluate_batch(
                block, abort_above=bound
            )

    def test_cache_hit_rate_gauge_in_run_metrics(self, problem):
        from repro.obs import run_metrics

        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=31)
        snap = run_metrics(result).snapshot()
        # the documented metric stays, and reads 0: nothing is cached
        assert snap["emts.cache_hit_rate"]["value"] == 0.0
        assert snap["emts.cache_hits"]["value"] == 0
