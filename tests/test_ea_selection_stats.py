"""Unit tests for survivor selection, statistics, and termination."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ea import (
    AnyOf,
    EvolutionLog,
    GenerationLimit,
    GenerationStats,
    Individual,
    StagnationLimit,
    TargetFitness,
    TimeBudget,
    best_of,
    comma_selection,
    plus_selection,
    population_diversity,
)
from repro.exceptions import ConfigurationError


def make(fitness, origin="x"):
    return Individual(
        genome=np.array([1]), fitness=fitness, origin=origin
    )


class TestPlusSelection:
    def test_keeps_best_of_union(self):
        parents = [make(5.0, "p"), make(3.0, "p")]
        offspring = [make(4.0, "o"), make(1.0, "o")]
        survivors = plus_selection(parents, offspring, 2)
        assert [s.fitness for s in survivors] == [1.0, 3.0]

    def test_elitism_preserves_best_parent(self):
        parents = [make(1.0, "p")]
        offspring = [make(9.0, "o")] * 3
        survivors = plus_selection(parents, offspring, 1)
        assert survivors[0].origin == "p"

    def test_stable_tie_break_prefers_parents(self):
        parents = [make(2.0, "p")]
        offspring = [make(2.0, "o")]
        survivors = plus_selection(parents, offspring, 1)
        assert survivors[0].origin == "p"

    def test_pool_too_small(self):
        with pytest.raises(ConfigurationError):
            plus_selection([make(1.0)], [], 5)

    def test_invalid_mu(self):
        with pytest.raises(ConfigurationError):
            plus_selection([make(1.0)], [], 0)


class TestCommaSelection:
    def test_ignores_parents(self):
        parents = [make(0.0, "p")]  # better than every child
        offspring = [make(5.0, "o"), make(7.0, "o")]
        survivors = comma_selection(parents, offspring, 1)
        assert survivors[0].fitness == 5.0

    def test_needs_enough_offspring(self):
        with pytest.raises(ConfigurationError):
            comma_selection([], [make(1.0)], 2)


class TestBestOf:
    def test_best(self):
        assert best_of([make(3.0), make(1.0), make(2.0)]).fitness == 1.0

    def test_empty(self):
        with pytest.raises(ConfigurationError):
            best_of([])


class TestStats:
    def test_from_population(self):
        pop = [make(1.0), make(3.0)]
        s = GenerationStats.from_population(2, pop, 10, 0.5)
        assert s.best == 1.0
        assert s.worst == 3.0
        assert s.mean == 2.0
        assert s.evaluations == 10

    def test_inf_fitness_excluded_from_mean(self):
        pop = [make(1.0), make(float("inf"))]
        s = GenerationStats.from_population(0, pop, 2, 0.0)
        assert s.mean == 1.0  # rejected individuals don't skew the mean
        assert s.worst == float("inf")

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1e12, max_value=1e12),
                st.floats(min_value=1e-9, max_value=1e-3),
                st.sampled_from([np.inf, -np.inf]),
            ),
            min_size=1,
            max_size=128,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_from_population_matches_numpy_bitwise(self, values):
        """best, mean, std and worst carry the bits of ndarray.min,
        mean, std and max (the mean and std over the finite values)."""
        fits = np.array(values, dtype=np.float64)
        finite = fits[np.isfinite(fits)]
        if finite.size == 0:
            finite = fits
        with np.errstate(invalid="ignore"):
            s = GenerationStats.from_population(
                0, [make(v) for v in values], 1, 0.0
            )
            expected = (
                fits.min(), finite.mean(), finite.std(), fits.max()
            )
        got = (s.best, s.mean, s.std, s.worst)
        for g, e in zip(got, expected):
            assert type(g) is float
            assert np.float64(g).tobytes() == np.float64(e).tobytes()

    def test_empty_population_raises_before_any_arithmetic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero-size"):
                GenerationStats.from_population(0, [], 0, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 16, 33, 128])
    def test_all_rejected_reports_the_infs(self, n):
        with np.errstate(invalid="ignore"):
            s = GenerationStats.from_population(
                0, [make(np.inf) for _ in range(n)], n, 0.0
            )
        assert s.best == s.mean == s.worst == np.inf
        assert np.isnan(s.std)

    def test_log_aggregates(self):
        log = EvolutionLog()
        log.append(GenerationStats(0, 5.0, 5.0, 0.0, 5.0, 3, 0.1))
        log.append(GenerationStats(1, 4.0, 4.5, 0.5, 5.0, 25, 0.2))
        assert log.generations == 2
        assert log.total_evaluations == 28
        assert log.total_seconds == pytest.approx(0.3)
        assert log.best_trajectory().tolist() == [5.0, 4.0]
        assert log.is_monotone()

    def test_log_detects_regression(self):
        log = EvolutionLog()
        log.append(GenerationStats(0, 5.0, 5.0, 0.0, 5.0, 1, 0.0))
        log.append(GenerationStats(1, 6.0, 6.0, 0.0, 6.0, 1, 0.0))
        assert not log.is_monotone()

    def test_log_rows_and_str(self):
        log = EvolutionLog()
        log.append(GenerationStats(0, 5.0, 5.0, 0.0, 5.0, 1, 0.0))
        rows = log.to_rows()
        assert rows[0]["generation"] == 0
        assert "gen" in str(log)


class TestDiversity:
    def _ind(self, genome):
        return Individual(genome=np.asarray(genome), fitness=1.0)

    def test_identical_population_zero(self):
        pop = [self._ind([3, 3, 3])] * 4
        assert population_diversity(pop) == 0.0

    def test_single_individual_zero(self):
        assert population_diversity([self._ind([1, 2])]) == 0.0

    def test_spread_measured(self):
        pop = [self._ind([1, 1]), self._ind([3, 1])]
        # position 0: std of {1,3} = 1; position 1: 0 -> mean 0.5
        assert population_diversity(pop) == pytest.approx(0.5)

    def test_more_spread_more_diversity(self):
        tight = [self._ind([5, 5]), self._ind([6, 6])]
        wide = [self._ind([1, 1]), self._ind([9, 9])]
        assert population_diversity(wide) > population_diversity(
            tight
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            population_diversity([])


class TestTermination:
    def _log_with_gens(self, n):
        log = EvolutionLog()
        for i in range(n + 1):  # entry 0 = initial population
            log.append(
                GenerationStats(i, 10.0 - i, 10.0, 0.0, 10.0, 1, 0.0)
            )
        return log

    def test_generation_limit(self):
        crit = GenerationLimit(3)
        assert not crit.should_stop(self._log_with_gens(2))
        assert crit.should_stop(self._log_with_gens(3))

    def test_generation_limit_invalid(self):
        with pytest.raises(ConfigurationError):
            GenerationLimit(0)

    def test_time_budget(self):
        crit = TimeBudget(0.01)
        crit.start()
        assert not crit.should_stop(self._log_with_gens(0))
        time.sleep(0.02)
        assert crit.should_stop(self._log_with_gens(0))

    def test_time_budget_invalid(self):
        with pytest.raises(ConfigurationError):
            TimeBudget(0.0)

    def test_target_fitness(self):
        crit = TargetFitness(8.0)
        assert not crit.should_stop(self._log_with_gens(0))  # best 10
        assert crit.should_stop(self._log_with_gens(2))  # best 8

    def test_target_fitness_empty_log(self):
        assert not TargetFitness(1.0).should_stop(EvolutionLog())

    def test_stagnation(self):
        log = EvolutionLog()
        for i, best in enumerate([10.0, 9.0, 9.0, 9.0]):
            log.append(
                GenerationStats(i, best, best, 0.0, best, 1, 0.0)
            )
        assert StagnationLimit(patience=2).should_stop(log)
        assert not StagnationLimit(patience=3).should_stop(log)

    def test_any_of(self):
        crit = AnyOf(GenerationLimit(100), TargetFitness(9.5))
        crit.start()
        assert crit.should_stop(self._log_with_gens(1))  # best 9 <= 9.5

    def test_any_of_empty(self):
        with pytest.raises(ConfigurationError):
            AnyOf()
