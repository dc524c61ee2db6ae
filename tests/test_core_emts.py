"""Integration-grade unit tests for the EMTS algorithm itself."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core import EMTS, EMTSConfig, emts5, emts10
from repro.mapping import makespan_of
from repro.platform import Cluster, chti, grelon
from repro.simulator import simulate
from repro.testing import Unbounded
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.verify import ScheduleVerifier
from repro.workloads import generate_fft


@pytest.fixture(scope="module")
def problem():
    """One shared scheduling problem: FFT-8 on Grelon under Model 2."""
    ptg = generate_fft(8, rng=101)
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    return ptg, cluster, table


class TestEMTSBasics:
    def test_result_structure(self, problem):
        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=1)
        assert result.allocation.shape == (39,)
        assert result.makespan > 0
        assert set(result.seed_makespans) == {
            "mcpa",
            "hcpa",
            "delta-critical",
        }
        assert result.evaluations == 5 + 5 * 25
        assert result.elapsed_seconds > 0

    def test_never_worse_than_seeds(self, problem):
        """The plus-strategy guarantee: EMTS cannot lose to its seeds."""
        ptg, cluster, table = problem
        for seed in range(5):
            result = emts5().schedule(ptg, cluster, table, rng=seed)
            assert result.makespan <= min(
                result.seed_makespans.values()
            ) + 1e-9

    def test_improvement_accessor(self, problem):
        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=2)
        assert result.improvement_over("mcpa") >= 1.0
        with pytest.raises(KeyError, match="no seed named"):
            result.improvement_over("unknown")

    def test_schedule_is_valid_and_simulates(self, problem):
        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=3)
        ScheduleVerifier(ptg, table).verify(result.schedule)
        sim = simulate(result.schedule, table)
        assert sim.makespan == pytest.approx(result.makespan)

    def test_fitness_equals_mapped_makespan(self, problem):
        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=4)
        assert makespan_of(
            ptg, table, result.allocation
        ) == pytest.approx(result.makespan)

    def test_deterministic_given_seed(self, problem):
        ptg, cluster, table = problem
        r1 = emts5().schedule(ptg, cluster, table, rng=42)
        r2 = emts5().schedule(ptg, cluster, table, rng=42)
        assert r1.makespan == r2.makespan
        assert np.array_equal(r1.allocation, r2.allocation)

    def test_mismatched_table_rejected(self, problem):
        from repro.exceptions import ConfigurationError

        ptg, cluster, table = problem
        other_ptg = generate_fft(4, rng=999)
        with pytest.raises(ConfigurationError, match="built for PTG"):
            emts5().schedule(other_ptg, cluster, table, rng=1)
        with pytest.raises(
            ConfigurationError, match="built for cluster"
        ):
            emts5().schedule(ptg, chti(), table, rng=1)

    def test_accepts_model_or_table(self, problem):
        ptg, cluster, table = problem
        r_table = emts5().schedule(ptg, cluster, table, rng=5)
        r_model = emts5().schedule(
            ptg, cluster, SyntheticModel(), rng=5
        )
        assert r_table.makespan == pytest.approx(r_model.makespan)

    def test_monotone_convergence_log(self, problem):
        ptg, cluster, table = problem
        result = emts5().schedule(ptg, cluster, table, rng=6)
        assert result.log.is_monotone()
        assert result.log.generations == 6  # init + 5


class TestEMTSVariants:
    def test_emts10_at_least_as_good_with_shared_seed(self, problem):
        """More budget cannot hurt (paper: EMTS10 >= EMTS5)."""
        ptg, cluster, table = problem
        r5 = emts5().schedule(ptg, cluster, table, rng=7)
        r10 = emts10().schedule(ptg, cluster, table, rng=7)
        # different population sizes mean different trajectories, but
        # over several seeds EMTS10 dominates on average
        assert r10.makespan <= r5.makespan * 1.05

    def test_emts10_evaluations(self, problem):
        ptg, cluster, table = problem
        result = emts10().schedule(ptg, cluster, table, rng=8)
        assert result.evaluations == 10 + 10 * 100

    def test_overrides(self):
        e = emts5(generations=2, name="quick")
        assert e.config.generations == 2
        assert e.name == "quick"

    @pytest.mark.parametrize("seed", [9, 19, 29])
    def test_rejection_strategy_same_result(self, problem, seed):
        """The mapper rejection is an optimization only: with the abort
        bound at the worst current parent, the run is bit-for-bit
        identical to the unrejected run (same makespan, same winning
        allocation, same per-generation statistics)."""
        ptg, cluster, table = problem
        plain = emts5().schedule(
            ptg, cluster, table, rng=seed, evaluator_wrapper=Unbounded
        )
        fast = emts5().schedule(ptg, cluster, table, rng=seed)
        assert fast.makespan == plain.makespan
        assert np.array_equal(fast.allocation, plain.allocation)
        assert fast.log.entries == [
            replace(e, elapsed_seconds=f.elapsed_seconds)
            for e, f in zip(plain.log.entries, fast.log.entries)
        ]

    def test_comma_selection_variant_runs(self, problem):
        ptg, cluster, table = problem
        result = EMTS(
            EMTSConfig(mu=5, lam=25, generations=3, selection="comma")
        ).schedule(ptg, cluster, table, rng=10)
        assert result.makespan > 0

    def test_time_budget_stops_early(self, problem):
        # one wall-clock budget: a run the clock stops says so, since
        # its answer depends on machine speed
        assert "time_budget_seconds" not in {
            f.name for f in fields(EMTSConfig)
        }
        ptg, cluster, table = problem
        config = EMTSConfig(mu=5, lam=25, generations=100_000)
        result = EMTS(config).schedule(
            ptg, cluster, table, rng=11, max_wall_time=0.15
        )
        assert result.elapsed_seconds < 5.0
        assert result.log.generations < 100_000
        assert result.interrupted


class TestModelIndependence:
    """EMTS works unchanged with every model family (the paper's thesis)."""

    @pytest.mark.parametrize(
        "model_factory",
        [
            AmdahlModel,
            SyntheticModel,
            lambda: __import__(
                "repro.timemodels", fromlist=["DowneyModel"]
            ).DowneyModel(),
            lambda: __import__(
                "repro.timemodels", fromlist=["PdgemmLikeModel"]
            ).PdgemmLikeModel(),
        ],
    )
    def test_runs_under_model(self, model_factory):
        ptg = generate_fft(4, rng=55)
        cluster = Cluster("c", num_processors=16, speed_gflops=2.0)
        result = emts5(generations=2).schedule(
            ptg, cluster, model_factory(), rng=55
        )
        ScheduleVerifier(ptg, cluster=cluster).verify(result.schedule)
        assert result.makespan <= min(
            result.seed_makespans.values()
        ) + 1e-9

    def test_small_cluster(self):
        ptg = generate_fft(4, rng=56)
        cluster = Cluster("duo", num_processors=2, speed_gflops=1.0)
        result = emts5().schedule(ptg, cluster, AmdahlModel(), rng=56)
        assert result.allocation.max() <= 2

    def test_single_processor_cluster(self):
        ptg = generate_fft(2, rng=57)
        cluster = Cluster("uni", num_processors=1, speed_gflops=1.0)
        result = emts5().schedule(ptg, cluster, AmdahlModel(), rng=57)
        assert np.all(result.allocation == 1)
