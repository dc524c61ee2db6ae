"""Tests for the figure-data generators (quick variants of E1-E6).

Figures 4/5 run on heavily reduced corpora here — the full-scale runs
live in benchmarks/.  These tests check the *structure* and the paper's
qualitative invariants, not the exact values.
"""

import numpy as np
import pytest

from repro.experiments.figures import (
    PANEL_ORDER,
    build_panels,
    generate_figure1,
    generate_figure2,
    generate_figure3,
    generate_figure4,
    generate_figure5,
    generate_figure6,
)
from repro.platform import grelon
from repro.timemodels import SyntheticModel, TimeTable
from repro.verify import ScheduleVerifier


class TestFigure1:
    def test_both_curves_non_monotone(self):
        fig = generate_figure1()
        assert fig.non_monotone(1024)
        assert fig.non_monotone(2048)

    def test_matrix_sizes_match_paper(self):
        assert generate_figure1().matrix_sizes == (1024, 2048)

    def test_larger_matrix_slower(self):
        fig = generate_figure1()
        assert np.all(fig.times[2048] > fig.times[1024])

    def test_render(self):
        out = generate_figure1().render()
        assert "n=1024" in out
        assert "non-monotone=True" in out

    def test_spikes_at_awkward_counts(self):
        fig = generate_figure1()
        spikes = set(fig.spikes(2048))
        # primes force 1 x p grids: they must be among the spikes
        assert spikes & {5, 7, 11, 13}


class TestFigure2:
    def test_five_node_example(self):
        fig = generate_figure2()
        assert fig.ptg.num_tasks == 5
        assert fig.genome.tolist() == [3, 2, 1, 2, 1]

    def test_render_shows_encoding(self):
        out = generate_figure2().render()
        assert "individual I = [3, 2, 1, 2, 1]" in out
        assert "node1" in out


class TestFigure3:
    @pytest.fixture(scope="class")
    def fig(self):
        return generate_figure3(samples=100_000, rng=3)

    def test_empirical_matches_analytic(self, fig):
        assert fig.max_abs_error < 0.01

    def test_shrink_mass_near_a(self, fig):
        assert fig.shrink_mass == pytest.approx(0.2, abs=0.01)

    def test_no_zero_adjustment(self, fig):
        zero_idx = np.flatnonzero(fig.support == 0)
        assert fig.empirical[zero_idx].sum() == 0.0

    def test_render(self, fig):
        out = fig.render()
        assert "shrink mass" in out


class TestComparisonFigures:
    """One tiny corpus shared by the Figure 4/5 structural tests."""

    @pytest.fixture(scope="class")
    def panels(self):
        from repro.workloads import generate_fft, generate_daggen
        from repro.workloads import DaggenParams

        return {
            "fft": [generate_fft(4, rng=s) for s in range(2)],
            "irregular-100": [
                generate_daggen(
                    DaggenParams(
                        num_tasks=30,
                        width=0.5,
                        regularity=0.2,
                        density=0.2,
                        jump=2,
                    ),
                    rng=s,
                )
                for s in range(2)
            ],
        }

    def test_figure4_structure(self, panels):
        fig = generate_figure4(seed=1, panels=panels)
        assert fig.model_name == "model1-amdahl"
        assert fig.emts_name == "emts5"
        assert set(fig.baselines) == {"mcpa", "hcpa"}
        assert set(fig.platforms) == {"chti", "grelon"}
        for panel in panels:
            for platform in ("chti", "grelon"):
                for baseline in ("mcpa", "hcpa"):
                    ci = fig.cell(panel, platform, baseline)
                    assert ci.mean >= 1.0 - 1e-9  # EMTS never loses

    def test_figure4_render(self, panels):
        out = generate_figure4(seed=1, panels=panels).render()
        assert "T_base/T_emts5" in out

    def test_figure5_rows(self, panels):
        fig = generate_figure5(seed=1, panels=panels)
        assert fig.emts5_row.model_name.startswith("model2")
        assert fig.emts10_row.emts_name == "emts10"
        out = fig.render()
        assert "EMTS5 row" in out and "EMTS10 row" in out

    def test_panel_order_constant(self):
        assert PANEL_ORDER == (
            "fft",
            "strassen",
            "layered-100",
            "irregular-100",
        )

    def test_build_panels_scaled(self):
        panels = build_panels(seed=1, scale=0.01)
        assert set(panels) == set(PANEL_ORDER)
        assert all(len(v) >= 1 for v in panels.values())
        assert all(
            p.num_tasks == 100 for p in panels["irregular-100"]
        )


class TestFigure6:
    @pytest.fixture(scope="class")
    def fig(self):
        from repro.workloads import DaggenParams, generate_daggen

        # a smaller instance than the paper's for test speed
        ptg = generate_daggen(
            DaggenParams(
                num_tasks=40,
                width=0.5,
                regularity=0.2,
                density=0.2,
                jump=2,
            ),
            rng=2,
        )
        return generate_figure6(seed=2, ptg=ptg)

    def test_emts_wins(self, fig):
        assert fig.speedup >= 1.0

    def test_emts_utilization_higher(self, fig):
        assert (
            fig.emts_schedule.utilization
            >= fig.mcpa_schedule.utilization
        )

    def test_schedules_valid(self, fig):
        table = TimeTable.build(SyntheticModel(), fig.ptg, grelon())
        verifier = ScheduleVerifier(fig.ptg, table)
        verifier.verify(fig.mcpa_schedule)
        verifier.verify(fig.emts_schedule)

    def test_render_and_svg(self, fig, tmp_path):
        out = fig.render()
        assert "MCPA" in out and "EMTS10" in out
        p1, p2 = fig.save_svgs(tmp_path)
        assert p1.exists() and p2.exists()
        assert p1.read_text().startswith("<svg")
