"""Property-based tests (hypothesis) for the evolution-strategy engine.

The fitness functions here are arbitrary deterministic hash-based maps,
so the properties hold for *any* optimization problem, not just
scheduling: plus-selection monotonicity, population-size invariants,
and determinism.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ea import (
    EvolutionStrategy,
    Individual,
    UniformIntegerMutation,
    plus_selection,
)
from repro.ea.selection import ranked


def hash_fitness(genome: np.ndarray) -> float:
    """A deterministic, structureless fitness (worst case for an EA)."""
    digest = hashlib.sha256(genome.tobytes()).digest()
    return int.from_bytes(digest[:6], "big") / 2**48


@st.composite
def ea_setups(draw):
    mu = draw(st.integers(min_value=1, max_value=5))
    lam = draw(st.integers(min_value=mu, max_value=12))
    genome_len = draw(st.integers(min_value=1, max_value=10))
    n_initial = draw(st.integers(min_value=1, max_value=mu))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    generations = draw(st.integers(min_value=1, max_value=6))
    initial = [
        Individual(
            genome=np.full(genome_len, i + 1, dtype=np.int64),
            origin=f"s{i}",
        )
        for i in range(n_initial)
    ]
    strategy = EvolutionStrategy(
        mu=mu,
        lam=lam,
        mutation=UniformIntegerMutation(low=1, high=9, rate=0.5),
    )
    return strategy, initial, seed, generations


@given(ea_setups())
@settings(max_examples=50, deadline=None)
def test_plus_strategy_monotone_for_any_fitness(setup):
    strategy, initial, seed, generations = setup
    result = strategy.evolve(
        initial,
        hash_fitness,
        np.random.default_rng(seed),
        total_generations=generations,
    )
    assert result.log.is_monotone()
    # the best is never worse than the best initial individual
    best_initial = min(hash_fitness(i.genome) for i in initial)
    assert result.best_fitness <= best_initial + 1e-12


@given(ea_setups())
@settings(max_examples=50, deadline=None)
def test_population_size_invariant(setup):
    strategy, initial, seed, generations = setup
    result = strategy.evolve(
        initial,
        hash_fitness,
        np.random.default_rng(seed),
        total_generations=generations,
    )
    # lam >= mu in every generated setup, so after the first generation
    # the population always holds exactly mu survivors
    assert len(result.population) == strategy.mu
    # every survivor is evaluated and feasible
    for ind in result.population:
        assert ind.evaluated
        assert ind.genome.min() >= 1


@given(ea_setups())
@settings(max_examples=30, deadline=None)
def test_determinism_for_any_setup(setup):
    strategy, initial, seed, generations = setup
    r1 = strategy.evolve(
        initial,
        hash_fitness,
        np.random.default_rng(seed),
        total_generations=generations,
    )
    r2 = strategy.evolve(
        initial,
        hash_fitness,
        np.random.default_rng(seed),
        total_generations=generations,
    )
    assert r1.best_fitness == r2.best_fitness
    assert np.array_equal(r1.best.genome, r2.best.genome)


@given(
    st.lists(
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False
        ),
        min_size=0,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_plus_selection_properties(parent_fits, child_fits, mu):
    parents = [
        Individual(genome=np.array([1]), fitness=f, origin="p")
        for f in parent_fits
    ]
    offspring = [
        Individual(genome=np.array([1]), fitness=f, origin="o")
        for f in child_fits
    ]
    pool_size = len(parents) + len(offspring)
    if pool_size < mu:
        return  # plus_selection requires a large enough pool
    survivors = plus_selection(parents, offspring, mu)
    assert len(survivors) == mu
    fits = [s.evaluated_fitness() for s in survivors]
    # survivors are exactly the mu smallest of the pool
    all_fits = sorted(parent_fits + child_fits)
    assert fits == all_fits[:mu]


@given(
    st.lists(
        st.sampled_from([0.0, 1.5, 2.0, 7.25, float("inf")]),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_ranked_keeps_stable_sort_tie_order(fits, mu):
    """The engine's survivor ranking is the stable ``sorted`` order,
    ties (``inf`` rejections included) going to the lower index."""
    if mu > len(fits):
        return
    reference = sorted(range(len(fits)), key=fits.__getitem__)[:mu]
    assert ranked(fits, mu).tolist() == reference
