"""Tests for the evolutionary-method variant comparison."""

import pytest

from repro.core import EMTS, emts5_config
from repro.experiments import compare_variants, default_variant_panel
from repro.platform import Cluster
from repro.testing import Unbounded
from repro.timemodels import SyntheticModel
from repro.workloads import generate_fft


class UnboundedEMTS(EMTS):
    """EMTS mapping every offspring to the end: the no-rejection
    reference."""

    def schedule(self, *args, **kwargs):
        return super().schedule(*args, evaluator_wrapper=Unbounded, **kwargs)


@pytest.fixture(scope="module")
def result():
    ptgs = [generate_fft(4, rng=s) for s in range(2)]
    cluster = Cluster("c", num_processors=16, speed_gflops=2.0)
    panel = [
        EMTS(emts5_config()),
        EMTS(
            emts5_config().with_updates(
                generations=2, name="emts-short"
            )
        ),
        UnboundedEMTS(emts5_config().with_updates(name="emts5-unbounded")),
    ]
    return compare_variants(
        ptgs, cluster, SyntheticModel(), variants=panel, seed=9
    )


class TestCompareVariants:
    def test_outcome_per_variant(self, result):
        names = {o.name for o in result.outcomes}
        assert names == {"emts5", "emts-short", "emts5-unbounded"}

    def test_lookup(self, result):
        assert result.outcome("emts5").mean_makespan > 0
        with pytest.raises(KeyError):
            result.outcome("nope")

    def test_rejection_variant_quality_identical(self, result):
        """Rejection changes speed, never quality."""
        reference = result.outcome("emts5-unbounded")
        bounded = result.outcome("emts5")
        assert bounded.mean_makespan == reference.mean_makespan
        assert bounded.mean_evaluations == reference.mean_evaluations

    def test_shorter_run_cheaper(self, result):
        assert (
            result.outcome("emts-short").mean_evaluations
            < result.outcome("emts5").mean_evaluations
        )

    def test_more_budget_no_worse(self, result):
        assert (
            result.outcome("emts5").mean_makespan
            <= result.outcome("emts-short").mean_makespan + 1e-9
        )

    def test_best_and_fastest(self, result):
        assert result.best_quality().mean_makespan == min(
            o.mean_makespan for o in result.outcomes
        )
        assert result.fastest().mean_seconds == min(
            o.mean_seconds for o in result.outcomes
        )

    def test_render(self, result):
        out = result.render()
        assert "ms/eval" in out
        assert "emts5" in out

    def test_default_panel_names_unique(self):
        panel = default_variant_panel()
        names = [v.name for v in panel]
        assert len(names) == len(set(names))
        assert "emts5" in names and "emts10" in names
