"""Unit tests for the tabulated/empirical model."""

import pytest

from repro.exceptions import ModelError
from repro.graph import PTG, Task
from repro.platform import Cluster
from repro.timemodels import MeasurementSeries, TabulatedModel


@pytest.fixture
def cluster():
    return Cluster("c", num_processors=8, speed_gflops=1.0)


@pytest.fixture
def halving_series():
    """Perfect scaling measured at powers of two."""
    return MeasurementSeries([1, 2, 4, 8], [1.0, 0.5, 0.25, 0.125])


class TestMeasurementSeries:
    def test_basic(self, halving_series):
        assert halving_series.interpolate(2) == pytest.approx(0.5)

    def test_interpolation_between_points(self, halving_series):
        assert halving_series.interpolate(3) == pytest.approx(0.375)

    def test_flat_extrapolation(self):
        s = MeasurementSeries([1, 4], [1.0, 0.3])
        assert s.interpolate(100) == pytest.approx(0.3)

    def test_must_start_at_one(self):
        with pytest.raises(ModelError, match="p=1"):
            MeasurementSeries([2, 4], [1.0, 0.5])

    def test_must_be_normalized(self):
        with pytest.raises(ModelError, match="must be 1.0"):
            MeasurementSeries([1, 2], [2.0, 1.0])

    def test_strictly_increasing_procs(self):
        with pytest.raises(ModelError, match="increasing"):
            MeasurementSeries([1, 2, 2], [1.0, 0.5, 0.4])

    def test_positive_values_required(self):
        with pytest.raises(ModelError):
            MeasurementSeries([1, 2], [1.0, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            MeasurementSeries([], [])

    def test_from_absolute(self):
        s = MeasurementSeries.from_absolute([1, 2, 4], [10.0, 6.0, 4.0])
        assert s.interpolate(2) == pytest.approx(0.6)

    def test_from_absolute_bad_reference(self):
        with pytest.raises(ModelError):
            MeasurementSeries.from_absolute([1, 2], [0.0, 1.0])

    def test_non_monotone_series_allowed(self):
        # empirical curves may go UP - that is the whole point
        s = MeasurementSeries([1, 2, 3], [1.0, 0.5, 0.8])
        assert s.interpolate(3) == pytest.approx(0.8)


class TestTabulatedModel:
    def test_time_scales_with_work(self, cluster, halving_series):
        model = TabulatedModel({"k": halving_series})
        fast = Task("f", work=1e9, kind="k")
        slow = Task("s", work=4e9, kind="k")
        assert model.time(slow, 2, cluster) == pytest.approx(
            4 * model.time(fast, 2, cluster)
        )

    def test_unknown_kind_without_default(self, cluster, halving_series):
        model = TabulatedModel({"k": halving_series})
        with pytest.raises(ModelError, match="no measurement series"):
            model.time(Task("t", work=1e9, kind="other"), 1, cluster)

    def test_default_series_fallback(self, cluster, halving_series):
        model = TabulatedModel({}, default=halving_series)
        t = Task("t", work=2e9, kind="whatever")
        assert model.time(t, 2, cluster) == pytest.approx(1.0)

    def test_needs_at_least_one_series(self):
        with pytest.raises(ModelError):
            TabulatedModel({})

    def test_table_per_kind(self, cluster):
        fast = MeasurementSeries([1, 8], [1.0, 0.125])
        flat = MeasurementSeries([1, 8], [1.0, 1.0])
        model = TabulatedModel({"fast": fast, "flat": flat})
        ptg = PTG(
            [
                Task("a", work=8e9, kind="fast"),
                Task("b", work=8e9, kind="flat"),
            ],
            [(0, 1)],
        )
        table = model.build_table(ptg, cluster)
        assert table[0, 7] == pytest.approx(1.0)  # scales
        assert table[1, 7] == pytest.approx(8.0)  # does not scale

    def test_table_matches_scalar(self, cluster, halving_series):
        model = TabulatedModel({}, default=halving_series)
        ptg = PTG([Task("a", work=3e9)], [])
        table = model.build_table(ptg, cluster)
        for p in range(1, 9):
            assert table[0, p - 1] == pytest.approx(
                model.time(ptg.task(0), p, cluster)
            )
