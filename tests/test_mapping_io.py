"""Unit tests for schedule serialization."""

import json

import numpy as np
import pytest

from repro.exceptions import ScheduleError, VerificationError
from repro.graph import chain
from repro.mapping import (
    load_schedule,
    map_allocations,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.platform import Cluster
from repro.timemodels import AmdahlModel, TimeTable
from repro.verify import ScheduleVerifier


@pytest.fixture
def scheduled():
    ptg = chain([1e9, 2e9, 1e9], name="io-chain")
    cluster = Cluster("c", num_processors=4, speed_gflops=1.0)
    table = TimeTable.build(AmdahlModel(), ptg, cluster)
    return ptg, map_allocations(ptg, table, np.array([1, 2, 4]))


class TestRoundTrip:
    def test_dict_roundtrip(self, scheduled):
        ptg, schedule = scheduled
        back = schedule_from_dict(schedule_to_dict(schedule), ptg)
        assert back.makespan == pytest.approx(schedule.makespan)
        assert np.allclose(back.start, schedule.start)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(back.proc_sets, schedule.proc_sets)
        )
        assert back.cluster == schedule.cluster

    def test_file_roundtrip(self, scheduled, tmp_path):
        ptg, schedule = scheduled
        path = tmp_path / "s.json"
        save_schedule(schedule, path)
        back = load_schedule(path, ptg)
        assert back.makespan == pytest.approx(schedule.makespan)

    def test_matched_by_name_not_order(self, scheduled):
        ptg, schedule = scheduled
        doc = schedule_to_dict(schedule)
        doc["tasks"] = list(reversed(doc["tasks"]))
        back = schedule_from_dict(doc, ptg)
        assert np.allclose(back.start, schedule.start)


class TestErrors:
    def test_wrong_format(self, scheduled):
        ptg, _ = scheduled
        with pytest.raises(ScheduleError, match="format"):
            schedule_from_dict({"format": "nope"}, ptg)

    def test_wrong_version(self, scheduled):
        ptg, schedule = scheduled
        doc = schedule_to_dict(schedule)
        doc["version"] = 99
        with pytest.raises(ScheduleError, match="version"):
            schedule_from_dict(doc, ptg)

    def test_missing_task(self, scheduled):
        ptg, schedule = scheduled
        doc = schedule_to_dict(schedule)
        doc["tasks"] = doc["tasks"][:-1]
        with pytest.raises(ScheduleError, match="lacks placements"):
            schedule_from_dict(doc, ptg)

    def test_unknown_task(self, scheduled):
        ptg, schedule = scheduled
        doc = schedule_to_dict(schedule)
        doc["tasks"][0]["name"] = "phantom"
        with pytest.raises(ScheduleError):
            schedule_from_dict(doc, ptg)

    def test_corrupted_placement_caught_by_validation(self, scheduled):
        ptg, schedule = scheduled
        doc = schedule_to_dict(schedule)
        doc["tasks"][1]["start"] = 0.0  # violates precedence
        with pytest.raises(ScheduleError, match="precedence"):
            schedule_from_dict(doc, ptg)

    def test_validation_can_be_skipped(self, scheduled):
        ptg, schedule = scheduled
        doc = schedule_to_dict(schedule)
        doc["tasks"][1]["start"] = 0.0
        back = schedule_from_dict(doc, ptg, validate=False)
        with pytest.raises(VerificationError) as info:
            ScheduleVerifier(ptg, cluster=back.cluster).verify(back)
        assert info.value.kind == "precedence"

    def test_non_dict_document(self, scheduled):
        ptg, _ = scheduled
        with pytest.raises(ScheduleError, match="JSON object"):
            schedule_from_dict(["not", "a", "dict"], ptg)

    def test_malformed_placement(self, scheduled):
        ptg, schedule = scheduled
        doc = schedule_to_dict(schedule)
        del doc["tasks"][0]["finish"]
        with pytest.raises(ScheduleError, match="malformed"):
            schedule_from_dict(doc, ptg)
        doc = schedule_to_dict(schedule)
        doc["tasks"][0]["start"] = "soon"
        with pytest.raises(ScheduleError, match="malformed"):
            schedule_from_dict(doc, ptg)


class TestTamperedFiles:
    def test_truncated_file(self, scheduled, tmp_path):
        ptg, schedule = scheduled
        path = tmp_path / "s.json"
        save_schedule(schedule, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate torn write
        with pytest.raises(ScheduleError, match="not valid JSON"):
            load_schedule(path, ptg)

    def test_unreadable_file(self, scheduled, tmp_path):
        ptg, _ = scheduled
        with pytest.raises(ScheduleError, match="cannot read"):
            load_schedule(tmp_path / "missing.json", ptg)

    def test_tampered_makespan_field(self, scheduled, tmp_path):
        ptg, schedule = scheduled
        path = tmp_path / "s.json"
        save_schedule(schedule, path)
        doc = json.loads(path.read_text())
        doc["makespan"] = doc["makespan"] * 0.5  # looks better than it is
        path.write_text(json.dumps(doc))
        with pytest.raises(ScheduleError, match="makespan"):
            load_schedule(path, ptg)

    def test_tampered_start_field(self, scheduled, tmp_path):
        ptg, schedule = scheduled
        path = tmp_path / "s.json"
        save_schedule(schedule, path)
        doc = json.loads(path.read_text())
        doc["tasks"][1]["start"] = 0.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ScheduleError, match="precedence"):
            load_schedule(path, ptg)

    def test_table_pins_durations(self, scheduled, tmp_path):
        ptg, schedule = scheduled
        cluster = schedule.cluster
        table = TimeTable.build(AmdahlModel(), ptg, cluster)
        path = tmp_path / "s.json"
        save_schedule(schedule, path)
        doc = json.loads(path.read_text())
        # shrink the last task's duration; structurally still valid, so
        # only the duration check (needs the table) can catch it
        doc["tasks"][-1]["finish"] = (
            doc["tasks"][-1]["start"]
            + (doc["tasks"][-1]["finish"] - doc["tasks"][-1]["start"])
            * 0.9
        )
        doc["makespan"] = max(t["finish"] for t in doc["tasks"])
        path.write_text(json.dumps(doc))
        load_schedule(path, ptg)  # structural check alone passes
        with pytest.raises(ScheduleError, match="predicts"):
            load_schedule(path, ptg, table=table)
