"""Unit tests for the allocation-vector encoding helpers (Figure 2)."""

import numpy as np
import pytest

from repro.core import (
    clamp_allocations,
    describe_genome,
    random_allocations,
)
from repro.exceptions import AllocationError
from repro.graph import chain


class TestClamp:
    def test_clamps_both_sides(self):
        g = np.array([-5, 0, 1, 8, 99])
        assert clamp_allocations(g, 8).tolist() == [1, 1, 1, 8, 8]

    def test_identity_when_valid(self):
        g = np.array([1, 4, 8])
        assert clamp_allocations(g, 8).tolist() == [1, 4, 8]

    def test_returns_int64(self):
        assert clamp_allocations(np.array([2.0]), 4).dtype == np.int64


class TestRandom:
    def test_in_range(self, rng):
        g = random_allocations(100, 7, rng)
        assert g.min() >= 1
        assert g.max() <= 7
        assert g.shape == (100,)

    def test_covers_domain(self, rng):
        g = random_allocations(1000, 5, rng)
        assert set(np.unique(g)) == {1, 2, 3, 4, 5}

    def test_invalid(self, rng):
        with pytest.raises(AllocationError):
            random_allocations(0, 5, rng)


class TestDescribe:
    def test_table_layout(self):
        ptg = chain([1e9, 1e9], name="c")
        out = describe_genome(ptg, np.array([3, 1]))
        assert "position" in out
        lines = out.splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert "t0" in lines[1] and "3" in lines[1]
