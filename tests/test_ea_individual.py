"""Unit tests for EA individuals."""

import numpy as np
import pytest

from repro.ea import Individual


class TestIndividual:
    def test_genome_copied_and_readonly(self):
        g = np.array([1, 2, 3])
        ind = Individual(genome=g)
        g[0] = 99
        assert ind.genome[0] == 1
        with pytest.raises(ValueError):
            ind.genome[0] = 5

    def test_unevaluated_by_default(self):
        ind = Individual(genome=np.array([1]))
        assert not ind.evaluated
        with pytest.raises(ValueError, match="not been evaluated"):
            ind.evaluated_fitness()

    def test_fitness_coerced_to_float(self):
        ind = Individual(genome=np.array([1]), fitness=np.float64(2.5))
        assert isinstance(ind.fitness, float)
        assert ind.evaluated

    def test_dominates(self):
        a = Individual(genome=np.array([1]), fitness=1.0)
        b = Individual(genome=np.array([1]), fitness=2.0)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(a)

    def test_len(self):
        assert len(Individual(genome=np.arange(7))) == 7

    def test_repr_states(self):
        ind = Individual(genome=np.array([1]))
        assert "unevaluated" in repr(ind)
        ind.fitness = float("inf")
        assert "inf" in repr(ind)
        ind.fitness = 3.5
        assert "3.5" in repr(ind)
