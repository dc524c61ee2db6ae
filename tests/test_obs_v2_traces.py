"""Version-2 traces still render as they did when they were written.

``tests/data/v2_traces/`` holds three traces written under trace
schema version 2 — an EMTS5 run with ``checkpoint_path`` and
``verify="sample"``, an ``execute_online`` run with faults, and a
two-trial campaign — each next to the ``report-trace`` output the
version-2 renderer printed for it (run from that directory, so the
header names the bare file).  The span-tree renderer must print the
same text.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import render_trace_report

DATA = Path(__file__).parent / "data" / "v2_traces"

#: Lines of the recorded output that the span-tree renderer prints
#: differently, per fixture.  None: a version-2 run's recorded
#: ``phase_seconds`` is shown as written, and every other line is
#: derived from the same events as before.
CHANGED_LINES: dict[str, set[str]] = {
    "emts5_run": set(),
    "online_faults": set(),
    "campaign": set(),
}


@pytest.mark.parametrize("name", sorted(CHANGED_LINES))
def test_fixture_is_version_2(name):
    lines = (DATA / f"{name}.jsonl").read_text().splitlines()
    assert {json.loads(line)["v"] for line in lines} == {2}


@pytest.mark.parametrize("name", sorted(CHANGED_LINES))
def test_v2_trace_renders_as_recorded(name, monkeypatch):
    monkeypatch.chdir(DATA)
    expected = (DATA / f"{name}.report.txt").read_text().splitlines()
    got = render_trace_report(f"{name}.jsonl").splitlines()
    changed = CHANGED_LINES[name]
    assert [line for line in got if line not in changed] == [
        line for line in expected if line not in changed
    ]


def test_v2_run_phases_shown_as_written(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert main(["report-trace", "emts5_run.jsonl"]) == 0
    out = capsys.readouterr().out
    # the profiler's mutation phase, recorded before phases were spans
    assert "  mutation          0.0010 s    1.4%" in out
    assert "evolve" not in out
