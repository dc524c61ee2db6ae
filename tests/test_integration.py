"""End-to-end integration tests: the full pipeline from workload
generation through scheduling, simulation and statistics, exactly as the
experiment harness composes it."""

import numpy as np
import pytest

from repro import (
    AmdahlModel,
    CpaAllocator,
    DeltaCriticalAllocator,
    HcpaAllocator,
    McpaAllocator,
    SerialAllocator,
    SyntheticModel,
    TimeTable,
    chti,
    emts5,
    grelon,
    simulate,
)
from repro.experiments import mean_confidence_interval
from repro.graph import load_ptg, save_ptg
from repro.mapping import makespan_of
from repro.verify import ScheduleVerifier
from repro.workloads import (
    DaggenParams,
    generate_daggen,
    generate_fft,
    generate_strassen,
)

ALL_HEURISTICS = [
    SerialAllocator(),
    CpaAllocator(),
    HcpaAllocator(),
    McpaAllocator(),
    DeltaCriticalAllocator(),
]


class TestFullPipeline:
    @pytest.mark.parametrize(
        "make_ptg",
        [
            lambda: generate_fft(8, rng=1),
            lambda: generate_strassen(rng=1),
            lambda: generate_daggen(
                DaggenParams(
                    num_tasks=30,
                    width=0.5,
                    regularity=0.2,
                    density=0.5,
                    jump=2,
                ),
                rng=1,
            ),
        ],
        ids=["fft", "strassen", "irregular"],
    )
    @pytest.mark.parametrize(
        "model", [AmdahlModel(), SyntheticModel()], ids=["m1", "m2"]
    )
    def test_every_algorithm_on_every_workload(self, make_ptg, model):
        ptg = make_ptg()
        cluster = chti()
        table = TimeTable.build(model, ptg, cluster)

        verifier = ScheduleVerifier(ptg, table)
        makespans = {}
        for h in ALL_HEURISTICS:
            schedule = h.schedule(ptg, table)
            verifier.verify(schedule)
            sim = simulate(schedule, table)
            assert sim.makespan == pytest.approx(schedule.makespan)
            makespans[h.name] = schedule.makespan

        result = emts5(generations=2).schedule(
            ptg, cluster, table, rng=1
        )
        simulate(result.schedule, table)
        # EMTS beats (or ties) every seed heuristic
        for name in ("mcpa", "hcpa", "delta-critical"):
            assert result.makespan <= makespans[name] + 1e-9

    def test_serialized_workload_schedules_identically(self, tmp_path):
        ptg = generate_fft(8, rng=9)
        path = tmp_path / "ptg.json"
        save_ptg(ptg, path)
        restored = load_ptg(path)

        cluster = grelon()
        table_a = TimeTable.build(SyntheticModel(), ptg, cluster)
        table_b = TimeTable.build(SyntheticModel(), restored, cluster)
        alloc_a = McpaAllocator().allocate(ptg, table_a)
        alloc_b = McpaAllocator().allocate(restored, table_b)
        assert np.array_equal(alloc_a, alloc_b)
        assert makespan_of(ptg, table_a, alloc_a) == pytest.approx(
            makespan_of(restored, table_b, alloc_b)
        )

    def test_statistics_over_many_instances(self):
        """A miniature Figure 4 column computed end to end."""
        cluster = chti()
        model = AmdahlModel()
        ratios = []
        for seed in range(6):
            ptg = generate_fft(4, rng=seed)
            table = TimeTable.build(model, ptg, cluster)
            hcpa_ms = makespan_of(
                ptg, table, HcpaAllocator().allocate(ptg, table)
            )
            result = emts5(generations=3).schedule(
                ptg, cluster, table, rng=seed
            )
            ratios.append(hcpa_ms / result.makespan)
        ci = mean_confidence_interval(np.array(ratios))
        assert ci.mean >= 1.0
        assert ci.n == 6

    def test_paper_scenario_shape(self):
        """The paper's headline comparison on one irregular instance:
        under Model 2 on Grelon, EMTS5 clearly beats both baselines."""
        ptg = generate_daggen(
            DaggenParams(
                num_tasks=50,
                width=0.5,
                regularity=0.2,
                density=0.2,
                jump=2,
            ),
            rng=77,
        )
        cluster = grelon()
        table = TimeTable.build(SyntheticModel(), ptg, cluster)
        result = emts5().schedule(ptg, cluster, table, rng=77)
        assert result.improvement_over("mcpa") > 1.05
        assert result.improvement_over("hcpa") > 1.05


class TestRuntimeHarness:
    def test_measure_runtimes_structure(self):
        from repro.experiments import measure_runtimes

        report = measure_runtimes(seed=1, repetitions=1)
        assert len(report.cells) == 6
        emts10_cell = report.cell("emts10", "grelon", "100-node")
        emts5_cell = report.cell("emts5", "grelon", "100-node")
        assert emts10_cell.mean_seconds > emts5_cell.mean_seconds
        out = report.render()
        assert "paper mean" in out
        with pytest.raises(KeyError):
            report.cell("emts99", "grelon", "100-node")
