"""Unit tests for EMTS population seeding (paper Section III-B)."""

import pytest

from repro.core import (
    SEED_REGISTRY,
    AllocationMutation,
    make_allocator,
    seed_population,
)
from repro.exceptions import ConfigurationError


@pytest.fixture
def mutation(synthetic_table):
    return AllocationMutation(P=synthetic_table.num_processors)


class TestMakeAllocator:
    def test_all_registry_entries_instantiate(self):
        for name in SEED_REGISTRY:
            assert make_allocator(name).name == name

    def test_delta_passed_through(self):
        alloc = make_allocator("delta-critical", delta=0.5)
        assert alloc.delta == 0.5

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown seed"):
            make_allocator("nonexistent")


class TestSeedPopulation:
    def test_heuristic_seeds_present(
        self, fft8_ptg, synthetic_table, mutation, rng
    ):
        pop, seeds = seed_population(
            fft8_ptg,
            synthetic_table,
            heuristics=("mcpa", "hcpa", "delta-critical"),
            population_size=5,
            mutation=mutation,
            rng=rng,
        )
        assert len(pop) == 5
        assert set(seeds) == {"mcpa", "hcpa", "delta-critical"}
        origins = [i.origin for i in pop[:3]]
        assert origins == [
            "seed:mcpa",
            "seed:hcpa",
            "seed:delta-critical",
        ]

    def test_filler_individuals_derived_from_seeds(
        self, fft8_ptg, synthetic_table, mutation, rng
    ):
        pop, _ = seed_population(
            fft8_ptg,
            synthetic_table,
            heuristics=("mcpa",),
            population_size=4,
            mutation=mutation,
            rng=rng,
        )
        assert len(pop) == 4
        for filler in pop[1:]:
            assert "mutated" in filler.origin

    def test_population_smaller_than_seed_count(
        self, fft8_ptg, synthetic_table, mutation, rng
    ):
        pop, seeds = seed_population(
            fft8_ptg,
            synthetic_table,
            heuristics=("mcpa", "hcpa", "delta-critical"),
            population_size=2,
            mutation=mutation,
            rng=rng,
        )
        assert len(pop) == 2
        assert len(seeds) == 3  # all seeds still computed/reported

    def test_genomes_feasible(
        self, fft8_ptg, synthetic_table, mutation, rng
    ):
        pop, _ = seed_population(
            fft8_ptg,
            synthetic_table,
            heuristics=("mcpa", "hcpa", "delta-critical"),
            population_size=10,
            mutation=mutation,
            rng=rng,
        )
        P = synthetic_table.num_processors
        for ind in pop:
            assert ind.genome.min() >= 1
            assert ind.genome.max() <= P

    def test_random_seeds_mode(
        self, fft8_ptg, synthetic_table, mutation, rng
    ):
        pop, seeds = seed_population(
            fft8_ptg,
            synthetic_table,
            heuristics=("mcpa",),
            population_size=5,
            mutation=mutation,
            rng=rng,
            random_seeds=True,
        )
        assert len(pop) == 5
        assert seeds == {}  # no heuristics were run
        assert all("random" in i.origin for i in pop)

    def test_invalid_population_size(
        self, fft8_ptg, synthetic_table, mutation, rng
    ):
        with pytest.raises(ConfigurationError):
            seed_population(
                fft8_ptg,
                synthetic_table,
                heuristics=("mcpa",),
                population_size=0,
                mutation=mutation,
                rng=rng,
            )
