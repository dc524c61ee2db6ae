"""Unit tests for the comparison harness and report rendering."""

import pytest

from repro.allocation import HcpaAllocator, McpaAllocator
from repro.core import emts5
from repro.experiments import (
    ComparisonResult,
    RunRecord,
    run_comparison,
    text_table,
    write_csv,
)
from repro.platform import Cluster
from repro.timemodels import SyntheticModel
from repro.workloads import generate_fft


@pytest.fixture(scope="module")
def small_result():
    ptgs = {
        "fft": [generate_fft(4, rng=s) for s in range(3)],
    }
    platforms = [
        Cluster("mini", num_processors=8, speed_gflops=2.0)
    ]
    return run_comparison(
        ptgs,
        platforms,
        SyntheticModel(),
        emts5(generations=2),
        [McpaAllocator(), HcpaAllocator()],
        seed=5,
    )


class TestRunComparison:
    def test_record_count(self, small_result):
        assert len(small_result) == 3  # 3 PTGs x 1 platform

    def test_record_fields(self, small_result):
        r = small_result.records[0]
        assert r.ptg_class == "fft"
        assert r.platform == "mini"
        assert r.num_tasks == 15
        assert set(r.baseline_makespans) == {"mcpa", "hcpa"}
        assert r.emts_makespan > 0

    def test_emts_never_loses_to_seeded_baselines(self, small_result):
        for r in small_result.records:
            assert r.relative("mcpa") >= 1.0 - 1e-9
            assert r.relative("hcpa") >= 1.0 - 1e-9

    def test_aggregation(self, small_result):
        ci = small_result.relative_makespan("mcpa")
        assert ci.n == 3
        assert ci.mean >= 1.0 - 1e-9

    def test_filter(self, small_result):
        assert len(small_result.filter(ptg_class="fft")) == 3
        assert len(small_result.filter(ptg_class="other")) == 0
        assert len(small_result.filter(platform="mini")) == 3

    def test_metadata_accessors(self, small_result):
        assert small_result.baselines == ("hcpa", "mcpa")
        assert small_result.classes == ("fft",)
        assert small_result.platforms == ("mini",)

    def test_to_rows(self, small_result):
        rows = small_result.to_rows()
        assert len(rows) == 3
        assert "makespan_mcpa" in rows[0]
        assert "emts_mapper_calls" in rows[0]

    def test_evaluation_counters_recorded(self, small_result):
        for r in small_result.records:
            # 3 seeds + 5 initial + 2 generations x 25 offspring
            assert r.emts_evaluations == 3 + 5 + 2 * 25
            assert (
                r.emts_mapper_calls + r.emts_cache_hits
                == r.emts_evaluations
            )

    def test_legacy_record_defaults(self):
        r = RunRecord(
            ptg_name="p",
            ptg_class="fft",
            num_tasks=1,
            platform="mini",
            model="m",
            emts_name="emts5",
            emts_makespan=1.0,
            emts_seconds=0.1,
            baseline_makespans={"mcpa": 1.5},
        )
        assert r.emts_evaluations == 0
        assert ComparisonResult([r]).to_rows()[0]["emts_cache_hits"] == 0

    def test_evaluator_overrides_do_not_change_makespans(self):
        ptgs = {"fft": [generate_fft(4, rng=2)]}
        platforms = [
            Cluster("mini", num_processors=8, speed_gflops=2.0)
        ]
        kwargs = dict(
            model=SyntheticModel(),
            baselines=[McpaAllocator()],
            seed=3,
        )
        plain = run_comparison(
            ptgs, platforms, emts=emts5(generations=2), **kwargs
        )
        tuned = run_comparison(
            ptgs,
            platforms,
            emts=emts5(generations=2, verify="full"),
            **kwargs,
        )
        assert (
            plain.records[0].emts_makespan
            == tuned.records[0].emts_makespan
        )
        assert tuned.records[0].emts_cache_hits == 0

    def test_reproducible(self):
        ptgs = {"fft": [generate_fft(4, rng=0)]}
        platforms = [
            Cluster("mini", num_processors=8, speed_gflops=2.0)
        ]
        kwargs = dict(
            model=SyntheticModel(),
            emts=emts5(generations=2),
            baselines=[McpaAllocator()],
            seed=9,
        )
        r1 = run_comparison(ptgs, platforms, **kwargs)
        r2 = run_comparison(ptgs, platforms, **kwargs)
        assert (
            r1.records[0].emts_makespan
            == r2.records[0].emts_makespan
        )


class TestReport:
    def test_text_table_alignment(self):
        out = text_table(
            ["name", "value"], [["a", 1.0], ["long-name", 2.5]]
        )
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(l) == len(lines[0]) or True for l in lines)
        assert "long-name" in lines[3]

    def test_text_table_float_format(self):
        out = text_table(["x"], [[1.23456789]])
        assert "1.235" in out

    def test_write_csv_roundtrip(self, tmp_path):
        rows = [
            {"a": 1, "b": "x"},
            {"a": 2, "b": "y", "c": 3.5},
        ]
        path = tmp_path / "out.csv"
        text = write_csv(rows, path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "a,b,c"
        assert len(lines) == 3

    def test_write_csv_empty(self):
        assert write_csv([]) == ""
