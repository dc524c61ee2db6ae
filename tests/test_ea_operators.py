"""Unit tests for the generic EA variation operators."""

import numpy as np
import pytest

from repro.ea import UniformIntegerMutation
from repro.exceptions import ConfigurationError


class TestUniformIntegerMutation:
    def test_stays_in_domain(self, rng):
        op = UniformIntegerMutation(low=1, high=9, rate=1.0)
        g = np.full(50, 5, dtype=np.int64)
        child = op.mutate(g, rng, 1, 10)
        assert child.min() >= 1
        assert child.max() <= 9

    def test_parent_untouched(self, rng):
        op = UniformIntegerMutation(low=1, high=9, rate=1.0)
        g = np.full(20, 5, dtype=np.int64)
        op.mutate(g, rng, 1, 10)
        assert np.all(g == 5)

    def test_rate_controls_positions(self, rng):
        op = UniformIntegerMutation(low=100, high=200, rate=0.25)
        g = np.zeros(100, dtype=np.int64)
        child = op.mutate(g, rng, 1, 10)
        assert np.count_nonzero(child) == 25

    def test_mutates_at_least_one(self, rng):
        op = UniformIntegerMutation(low=5, high=5, rate=0.001)
        g = np.zeros(10, dtype=np.int64)
        child = op.mutate(g, rng, 1, 10)
        assert np.count_nonzero(child == 5) == 1

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            UniformIntegerMutation(low=5, high=1)
        with pytest.raises(ConfigurationError):
            UniformIntegerMutation(low=1, high=5, rate=0.0)
