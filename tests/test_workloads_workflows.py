"""Unit tests for the scientific-workflow generators."""

import pytest

from repro.exceptions import GraphError
from repro.graph import precedence_levels, validate_ptg
from repro.workloads import (
    generate_montage,
    generate_pipeline_ensemble,
)


class TestMontage:
    def test_task_count(self):
        # tiles projections + (tiles-1) diffs + fit + tiles corrections
        # + coadd = 3*tiles + 1
        for tiles in (2, 4, 8, 16):
            g = generate_montage(tiles, rng=1)
            assert g.num_tasks == 3 * tiles + 1

    def test_structure(self):
        g = generate_montage(6, rng=2)
        # sources: the projection tasks; sink: the co-addition
        assert len(g.sinks) == 1
        assert g.task(g.sinks[0]).kind == "montage-coadd"
        assert len(g.sources) == 6  # one projection per tile

    def test_fit_concentrates_all_diffs(self):
        g = generate_montage(5, rng=3)
        fit = g.index("mBgModel")
        assert len(g.predecessors(fit)) == 4  # tiles - 1 diffs

    def test_corrections_depend_on_fit_and_tile(self):
        g = generate_montage(4, rng=4)
        c0 = g.index("mBackground-0")
        pred_names = {g.task(u).name for u in g.predecessors(c0)}
        assert pred_names == {"mBgModel", "mProject-0"}

    def test_diamond_depth(self):
        g = generate_montage(8, rng=5)
        lv = precedence_levels(g)
        assert int(lv.max()) == 4  # project, diff, fit, correct, coadd

    def test_validates(self):
        rep = validate_ptg(
            generate_montage(10, rng=6), require_connected=True
        )
        assert rep.ok, str(rep)

    def test_reproducible(self):
        assert generate_montage(6, rng=7) == generate_montage(
            6, rng=7
        )

    def test_too_few_tiles(self):
        with pytest.raises(GraphError):
            generate_montage(1, rng=1)


class TestPipelineEnsemble:
    def test_task_count(self):
        g = generate_pipeline_ensemble(pipelines=5, depth=3, rng=1)
        assert g.num_tasks == 5 * 3 + 2

    def test_single_source_single_sink(self):
        g = generate_pipeline_ensemble(pipelines=4, depth=2, rng=2)
        assert len(g.sources) == 1
        assert len(g.sinks) == 1

    def test_depth(self):
        g = generate_pipeline_ensemble(pipelines=3, depth=5, rng=3)
        lv = precedence_levels(g)
        assert int(lv.max()) == 6  # setup + 5 stages + aggregate

    def test_pipelines_are_independent(self):
        g = generate_pipeline_ensemble(pipelines=3, depth=2, rng=4)
        # a middle stage of pipeline 0 has exactly one successor
        mid = g.index("p0-s0")
        assert len(g.successors(mid)) == 1

    def test_validates(self):
        rep = validate_ptg(
            generate_pipeline_ensemble(6, 4, rng=5),
            require_connected=True,
        )
        assert rep.ok, str(rep)

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            generate_pipeline_ensemble(0, 3, rng=1)
        with pytest.raises(GraphError):
            generate_pipeline_ensemble(3, 0, rng=1)


class TestSchedulability:
    """The workflow shapes work end-to-end with the whole stack."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_montage(8, rng=11),
            lambda: generate_pipeline_ensemble(6, 4, rng=11),
        ],
        ids=["montage", "ensemble"],
    )
    def test_emts_schedules_workflows(self, make):
        from repro import SyntheticModel, emts5, grelon, simulate

        ptg = make()
        result = emts5().schedule(
            ptg, grelon(), SyntheticModel(), rng=11
        )
        simulate(result.schedule)
        assert result.makespan <= min(
            result.seed_makespans.values()
        ) + 1e-9
