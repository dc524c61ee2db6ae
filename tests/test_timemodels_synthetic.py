"""Unit tests for Model 2 (synthetic non-monotone) — Algorithm 1."""

import pytest

from repro.graph import Task
from repro.platform import Cluster
from repro.timemodels import (
    AmdahlModel,
    SyntheticModel,
    TimeTable,
    penalty_factors,
)


@pytest.fixture
def cluster():
    return Cluster("c", num_processors=32, speed_gflops=1.0)


class TestPenaltyFactors:
    def test_sequential_never_penalized(self):
        f = penalty_factors(32)
        assert f[0] == 1.0

    def test_odd_counts_penalized_13(self):
        f = penalty_factors(32)
        for p in (3, 5, 7, 9, 31):
            assert f[p - 1] == pytest.approx(1.3)

    def test_even_squares_penalized_11_algorithm1(self):
        f = penalty_factors(32)
        for p in (4, 16):
            assert f[p - 1] == pytest.approx(1.1)

    def test_even_nonsquares_clean_algorithm1(self):
        f = penalty_factors(32)
        for p in (2, 6, 8, 10, 24, 32):
            assert f[p - 1] == 1.0

    def test_prose_variant_inverts_square_branch(self):
        f = penalty_factors(32, prose_variant=True)
        for p in (4, 16):  # even squares clean under the prose reading
            assert f[p - 1] == 1.0
        for p in (2, 6, 8, 24, 32):  # even non-squares penalized
            assert f[p - 1] == pytest.approx(1.1)
        for p in (3, 5, 31):  # odd penalty unchanged
            assert f[p - 1] == pytest.approx(1.3)

    def test_odd_squares_get_odd_penalty(self):
        # 9 and 25 are odd AND square: Algorithm 1 checks odd first
        f = penalty_factors(32)
        assert f[8] == pytest.approx(1.3)
        assert f[24] == pytest.approx(1.3)


class TestSyntheticModel:
    def test_time_is_penalized_amdahl(self, cluster):
        t = Task("t", work=6e9, alpha=0.1)
        amdahl = AmdahlModel()
        model = SyntheticModel()
        for p in (1, 2, 3, 4, 5, 8, 16):
            expected = amdahl.time(t, p, cluster) * model.penalty(p)
            assert model.time(t, p, cluster) == pytest.approx(expected)

    def test_not_monotone_flag(self):
        assert not SyntheticModel().monotone

    def test_table_matches_scalar(self, fft8_ptg, cluster):
        model = SyntheticModel()
        table = model.build_table(fft8_ptg, cluster)
        for v in (0, 10, 38):
            for p in (1, 3, 4, 9, 32):
                assert table[v, p - 1] == pytest.approx(
                    model.time(fft8_ptg.task(v), p, cluster)
                )

    def test_table_empirically_non_monotone(self, fft8_ptg, cluster):
        table = TimeTable.build(SyntheticModel(), fft8_ptg, cluster)
        assert not table.is_monotone()

    def test_p2_vs_p3_inversion(self, cluster):
        """The signature non-monotonicity: 3 procs slower than 2 once
        the Amdahl gain of the third processor is below the 1.3 odd
        penalty (here alpha = 0.3)."""
        t = Task("t", work=6e9, alpha=0.3)
        model = SyntheticModel()
        # T(2) = (0.3 + 0.35)*6 = 3.9 ; T(3) = (0.3 + 0.7/3)*6*1.3 = 4.16
        assert model.time(t, 3, cluster) > model.time(t, 2, cluster)

    def test_penalty_scalar_matches_vector(self):
        model = SyntheticModel()
        f = penalty_factors(32)
        for p in range(1, 33):
            assert model.penalty(p) == pytest.approx(f[p - 1])

    def test_prose_variant_scalar(self):
        model = SyntheticModel(prose_variant=True)
        assert model.penalty(4) == 1.0
        assert model.penalty(6) == pytest.approx(1.1)
        assert model.penalty(5) == pytest.approx(1.3)
        assert "prose" in model.name
