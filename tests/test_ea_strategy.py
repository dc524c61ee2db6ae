"""Unit tests for the (mu + lambda) evolution strategy engine.

Uses a simple integer test problem (minimize distance to a target vector)
so EA behaviour is verifiable independently of the scheduling domain.
"""

import numpy as np
import pytest

from repro.core import AllocationMutation
from repro.ea import (
    AnyOf,
    EvolutionStrategy,
    GenerationLimit,
    Individual,
    StagnationLimit,
    TimeBudget,
    UniformIntegerMutation,
)
from repro.exceptions import ConfigurationError

TARGET = np.array([3, 7, 2, 9, 5], dtype=np.int64)


def fitness(genome: np.ndarray) -> float:
    return float(np.abs(genome - TARGET).sum())


def initial_pop(n=3):
    return [
        Individual(
            genome=np.full(5, i + 1, dtype=np.int64),
            origin=f"seed{i}",
        )
        for i in range(n)
    ]


def make_strategy(**kwargs):
    defaults = dict(
        mu=3,
        lam=12,
        mutation=UniformIntegerMutation(low=1, high=10, rate=0.4),
    )
    defaults.update(kwargs)
    return EvolutionStrategy(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0),
            dict(lam=0),
            dict(selection="tournament"),
            dict(selection="comma", mu=5, lam=3),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_strategy(**kwargs)


class TestEvolve:
    def test_improves_over_initial(self, rng):
        strat = make_strategy()
        result = strat.evolve(
            initial_pop(), fitness, rng, total_generations=15
        )
        initial_best = min(fitness(i.genome) for i in initial_pop())
        assert result.best_fitness <= initial_best
        assert result.generations == 15

    def test_plus_is_monotone(self, rng):
        result = make_strategy().evolve(
            initial_pop(), fitness, rng, total_generations=10
        )
        assert result.log.is_monotone()

    def test_population_size_is_mu(self, rng):
        result = make_strategy(mu=3).evolve(
            initial_pop(5), fitness, rng, total_generations=2
        )
        assert len(result.population) == 3

    def test_evaluation_count(self, rng):
        result = make_strategy(mu=2, lam=7).evolve(
            initial_pop(2), fitness, rng, total_generations=4
        )
        # 2 initial + 4 * 7 offspring
        assert result.evaluations == 2 + 28

    def test_comma_selection_runs(self, rng):
        result = make_strategy(
            mu=3, lam=12, selection="comma"
        ).evolve(initial_pop(), fitness, rng, total_generations=5)
        assert len(result.population) == 3

    def test_requires_initial_population(self, rng):
        with pytest.raises(ConfigurationError):
            make_strategy().evolve([], fitness, rng, total_generations=2)

    def test_requires_termination_or_generations(self, rng):
        with pytest.raises(ConfigurationError):
            make_strategy().evolve(initial_pop(), fitness, rng)

    def test_explicit_termination(self, rng):
        result = make_strategy().evolve(
            initial_pop(),
            fitness,
            rng,
            termination=GenerationLimit(3),
        )
        assert result.generations == 3

    def test_stagnation_termination(self, rng):
        # a constant fitness stagnates immediately after patience gens
        result = make_strategy().evolve(
            initial_pop(),
            lambda g: 1.0,
            rng,
            termination=StagnationLimit(patience=2),
            total_generations=5,
        )
        assert result.generations <= 4

    def test_deterministic_given_seed(self):
        r1 = make_strategy().evolve(
            initial_pop(),
            fitness,
            np.random.default_rng(7),
            total_generations=8,
        )
        r2 = make_strategy().evolve(
            initial_pop(),
            fitness,
            np.random.default_rng(7),
            total_generations=8,
        )
        assert r1.best_fitness == r2.best_fitness
        assert np.array_equal(r1.best.genome, r2.best.genome)

    def test_inf_fitness_rejected_individuals(self, rng):
        """Individuals may be rejected with inf; the EA keeps going."""

        def gated(genome):
            f = fitness(genome)
            return float("inf") if f > 15 else f

        init = [
            Individual(genome=TARGET.copy(), origin="seed")
        ]  # fitness 0
        result = make_strategy(mu=1, lam=5).evolve(
            init, gated, rng, total_generations=3
        )
        assert result.best_fitness == 0.0

    def test_finds_optimum_eventually(self):
        rng = np.random.default_rng(123)
        strat = make_strategy(mu=5, lam=40)
        result = strat.evolve(
            initial_pop(5), fitness, rng, total_generations=60
        )
        assert result.best_fitness == 0.0

    def test_initial_individuals_not_mutated_in_place(self, rng):
        init = initial_pop()
        genomes_before = [i.genome.copy() for i in init]
        make_strategy().evolve(init, fitness, rng, total_generations=3)
        for ind, before in zip(init, genomes_before):
            assert np.array_equal(ind.genome, before)

    def test_hook_bound_rejection_equivalence(self):
        """Plus selection bounds every batch at the worst parent, and
        rejecting there does not change the trajectory (the EMTS
        rejection-strategy invariant, checked at the engine level).  A
        plain callable gets no bound: it is the reference."""

        def run(fit):
            return make_strategy().evolve(
                initial_pop(),
                fit,
                np.random.default_rng(77),
                total_generations=8,
            )

        gate = GatedFitness()
        gated = run(gate)
        plain = run(fitness)
        assert gate.rejected > 0
        assert _trajectory(gated) == _trajectory(plain)

    @pytest.mark.parametrize("mu,starters", [(3, 3), (3, 1), (4, 2)])
    def test_bound_is_worst_parent_once_mu_parents(self, mu, starters):
        """The initial batch is unbounded; a generation is bounded at
        the previous worst survivor once there are ``mu`` parents.  With
        fewer starters than ``mu`` the first generation's offspring can
        fill free slots at any fitness, so it runs unbounded."""

        def run(fit):
            return make_strategy(mu=mu, lam=6).evolve(
                initial_pop(starters),
                fit,
                np.random.default_rng(5),
                total_generations=6,
            )

        gate = GatedFitness()
        gated = run(gate)
        assert _trajectory(gated) == _trajectory(run(fitness))
        worst = [e.worst for e in gated.log.entries]
        sizes = [starters] + [mu] * (len(worst) - 1)
        expected = [None] + [
            w if n == mu else None for w, n in zip(worst[:-1], sizes)
        ]
        assert gate.bounds == expected

    def test_comma_selection_is_never_bounded(self):
        gate = GatedFitness()
        make_strategy(mu=3, lam=6, selection="comma").evolve(
            initial_pop(), gate, np.random.default_rng(5),
            total_generations=4,
        )
        assert gate.bounds == [None] * 5


class GatedFitness:
    """Batch fitness that honours ``abort_above`` and records it."""

    def __init__(self) -> None:
        self.bounds = []
        self.rejected = 0

    def evaluate_batch(self, genome_block, abort_above=None):
        self.bounds.append(abort_above)
        bound = float("inf") if abort_above is None else abort_above
        values = [fitness(g) for g in genome_block]
        self.rejected += sum(f >= bound for f in values)
        return [f if f < bound else float("inf") for f in values]


def _trajectory(result):
    """Best genome, survivors and every generation's statistics."""
    return (
        result.best.genome.tolist(),
        [ind.genome.tolist() for ind in result.population],
        [
            (e.best, e.mean, e.worst, e.evaluations)
            for e in result.log.entries
        ],
    )


class TestAnnealingHorizon:
    """``U`` for the mutation operator when only a termination is given."""

    def test_horizon_from_generation_limit_inside_anyof(self, rng):
        # U used to default to 10 here, and the Eq. 1 operator then
        # raised at generation 11
        strategy = EvolutionStrategy(
            mu=3, lam=6, mutation=AllocationMutation(P=10)
        )
        result = strategy.evolve(
            initial_pop(),
            fitness,
            rng,
            termination=AnyOf(GenerationLimit(15), TimeBudget(100.0)),
        )
        assert result.generations == 15

    def test_smallest_limit_is_the_horizon(self, rng):
        horizons = []

        class Recording(UniformIntegerMutation):
            def mutate(self, genome, rng, generation, total_generations):
                horizons.append(total_generations)
                return super().mutate(
                    genome, rng, generation, total_generations
                )

        make_strategy(mutation=Recording(1, 10)).evolve(
            initial_pop(),
            fitness,
            rng,
            termination=AnyOf(
                StagnationLimit(50),
                AnyOf(GenerationLimit(12), GenerationLimit(20)),
            ),
        )
        assert set(horizons) == {12}

    def test_no_horizon_raises_before_first_generation(self, rng):
        calls = []

        def counting(genome):
            calls.append(1)
            return fitness(genome)

        with pytest.raises(ConfigurationError, match="annealing horizon"):
            make_strategy().evolve(
                initial_pop(),
                counting,
                rng,
                termination=AnyOf(StagnationLimit(2), TimeBudget(10.0)),
            )
        assert calls == []
