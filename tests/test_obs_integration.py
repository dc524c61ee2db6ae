"""End-to-end observability: EMTS runs, evaluators, campaigns.

Covers the acceptance criteria of the observability layer: a traced
run produces a schema-valid JSONL stream whose deterministic skeleton
is bit-identical across same-seed runs, observability changes no
results, and the metrics registry aggregates across every surface
(serial, pooled, campaign).
"""

import json
import threading

import pytest

from repro.core import SerialEvaluator, emts5, make_allocator
from repro.exceptions import TraceError
from repro.obs import (
    MetricsRegistry,
    ObservedEvaluator,
    Tracer,
    canonical_events,
    load_trace,
    read_trace,
    render_trace_report,
    run_phases,
    validate_event,
)
from repro.platform import grelon
from repro.timemodels import SyntheticModel, TimeTable
from repro.workloads import generate_fft

#: Phases report-trace derives for an EMTS run.
KNOWN_PHASES = {
    "seeding",
    "seed_fitness",
    "kernel_build",
    "evolve",
    "fitness_batch",
    "checkpoint",
    "final_mapping",
    "verify",
}


@pytest.fixture(scope="module")
def problem():
    ptg = generate_fft(8, rng=777)
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    return ptg, cluster, table


def traced_run(problem, path, seed=42, islands=False, **kwargs):
    ptg, cluster, table = problem
    return emts5(islands=islands).schedule(
        ptg, cluster, table, rng=seed, trace=path, **kwargs
    )


class TestTracedRun:
    def test_event_stream_shape(self, problem, tmp_path):
        path = tmp_path / "run.jsonl"
        result = traced_run(problem, path)
        events = read_trace(path)
        kinds = [e.kind for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("seed") == 1
        generations = [e for e in events if e.kind == "generation"]
        assert len(generations) == result.config.generations + 1
        for event in events:
            validate_event(event.to_dict())

    def test_run_start_attrs(self, problem, tmp_path):
        path = tmp_path / "run.jsonl"
        traced_run(problem, path)
        start = read_trace(path)[0]
        assert start.attrs["algorithm"] == "emts5"
        assert start.attrs["resumed"] is False
        fingerprint = start.attrs["problem"]
        assert fingerprint["num_tasks"] == 39
        assert fingerprint["cluster_name"] == "grelon"

    def test_run_end_attrs(self, problem, tmp_path):
        path = tmp_path / "run.jsonl"
        result = traced_run(problem, path)
        end = read_trace(path)[-1]
        assert end.attrs["makespan"] == pytest.approx(result.makespan)
        assert end.attrs["engine"] in ("c", "numpy")
        assert end.attrs["interrupted"] is False
        assert (
            end.attrs["eval_stats"]["evaluations"]
            == result.evaluation_stats.evaluations
        )

    def test_phase_breakdown_is_sane(self, problem, tmp_path):
        path = tmp_path / "run.jsonl"
        traced_run(problem, path)
        events = read_trace(path)
        assert "phase_seconds" not in events[-1].attrs
        (tree,) = load_trace(path)
        (run,) = tree.root.children
        phases = run_phases(run)
        assert set(phases) <= KNOWN_PHASES
        assert {"seeding", "evolve", "fitness_batch"} <= set(phases)
        assert all(v >= 0 for v in phases.values())
        # phase times nest inside the run span
        assert sum(phases.values()) <= run.dur * 1.01
        kinds = [e.kind for e in events]
        after_seed = events[kinds.index("seed"):]
        assert phases["fitness_batch"] == pytest.approx(
            sum(e.dur for e in after_seed if e.kind == "evaluation")
        )

    @pytest.mark.parametrize("islands", [False, True])
    def test_phases_add_up_fresh_and_resumed(
        self, problem, tmp_path, islands
    ):
        ckpt = tmp_path / "run.ckpt"
        stop = threading.Event()
        stop.set()  # stop after generation 0, then resume
        traced_run(
            problem, tmp_path / "first.jsonl", seed=5, islands=islands,
            checkpoint_path=ckpt, stop_event=stop,
        )
        traced_run(
            problem, tmp_path / "second.jsonl", seed=5, islands=islands,
            checkpoint_path=ckpt, resume_from=ckpt,
        )
        for name in ("first.jsonl", "second.jsonl"):
            (tree,) = load_trace(tmp_path / name)
            (run,) = tree.root.children
            phases = run_phases(run)
            assert set(phases) <= KNOWN_PHASES
            assert {"evolve", "fitness_batch", "checkpoint"} <= set(
                phases
            )
            assert all(v >= 0 for v in phases.values())
            assert sum(phases.values()) <= run.dur * 1.01
        # a resumed run neither seeds nor scores the seeds again
        assert "seeding" not in phases
        assert "seed_fitness" not in phases

    @pytest.mark.parametrize("verify", ["off", "sample", "full"])
    def test_verify_phase_partitions_the_run(
        self, problem, tmp_path, verify
    ):
        ptg, cluster, table = problem
        path = tmp_path / "run.jsonl"
        emts5(verify=verify).schedule(
            ptg, cluster, table, rng=42, trace=path
        )
        events = read_trace(path)
        (tree,) = load_trace(path)
        (run,) = tree.root.children
        phases = run_phases(run)
        assert set(phases) <= KNOWN_PHASES
        assert all(v >= 0 for v in phases.values())
        assert sum(phases.values()) <= run.dur * 1.01
        batches = [e for e in events if e.kind == "evaluation"]
        if verify == "off":
            # no verifier in the stack: the events keep their v3 shape
            assert not any("verify_seconds" in e.attrs for e in batches)
            assert "verify" not in phases
            return
        (verify_event,) = [e for e in events if e.kind == "verify"]
        assert phases["verify"] > 0
        assert phases["verify"] == pytest.approx(
            verify_event.attrs["overhead_seconds"]
        )
        assert phases["verify"] == pytest.approx(
            sum(e.attrs["verify_seconds"] for e in batches)
        )

    @pytest.mark.parametrize("islands", [False, True])
    def test_observers_change_no_results(self, problem, tmp_path, islands):
        ptg, cluster, table = problem
        outcomes = []
        for i, (trace, metrics) in enumerate(
            [(False, False), (True, False), (False, True), (True, True)]
        ):
            result = emts5(islands=islands).schedule(
                ptg, cluster, table, rng=9,
                trace=tmp_path / f"{i}.jsonl" if trace else None,
                metrics=MetricsRegistry() if metrics else None,
            )
            outcomes.append(
                (result.makespan.hex(), result.allocation.tolist())
            )
        assert all(o == outcomes[0] for o in outcomes)

    def test_same_seed_traces_bit_identical(self, problem, tmp_path):
        traced_run(problem, tmp_path / "a.jsonl", seed=7)
        traced_run(problem, tmp_path / "b.jsonl", seed=7)
        a = canonical_events(tmp_path / "a.jsonl")
        b = canonical_events(tmp_path / "b.jsonl")
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_different_seeds_differ(self, problem, tmp_path):
        traced_run(problem, tmp_path / "a.jsonl", seed=7)
        traced_run(problem, tmp_path / "b.jsonl", seed=8)
        assert canonical_events(
            tmp_path / "a.jsonl"
        ) != canonical_events(tmp_path / "b.jsonl")

    def test_observability_changes_no_results(self, problem, tmp_path):
        ptg, cluster, table = problem
        plain = emts5().schedule(ptg, cluster, table, rng=9)
        observed = traced_run(
            problem, tmp_path / "t.jsonl", seed=9,
            metrics=MetricsRegistry(),
        )
        assert observed.makespan == plain.makespan
        assert (observed.allocation == plain.allocation).all()

    def test_open_tracer_instance_is_shared_not_closed(
        self, problem, tmp_path
    ):
        path = tmp_path / "two.jsonl"
        with Tracer(path) as tracer:
            traced_run(problem, tracer, seed=1)
            assert not tracer.closed
            traced_run(problem, tracer, seed=2)
        kinds = [e.kind for e in read_trace(path)]
        assert kinds.count("run_start") == 2
        assert kinds.count("run_end") == 2

    def test_unwritable_trace_path_raises(self, problem, tmp_path):
        target = tmp_path / "a-directory"
        target.mkdir()
        with pytest.raises(TraceError, match="cannot open"):
            traced_run(problem, target)

    def test_checkpoint_events_and_resume_flag(
        self, problem, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        stop = threading.Event()
        stop.set()  # interrupt immediately after the first generation
        interrupted = traced_run(
            problem,
            tmp_path / "first.jsonl",
            seed=5,
            checkpoint_path=ckpt,
            stop_event=stop,
        )
        assert interrupted.interrupted
        first = read_trace(tmp_path / "first.jsonl")
        checkpoints = [e for e in first if e.kind == "checkpoint"]
        assert checkpoints and not checkpoints[-1].attrs["completed"]
        assert [e.kind for e in first][-1] == "run_end"
        assert first[-1].attrs["interrupted"] is True

        resumed = traced_run(
            problem,
            tmp_path / "second.jsonl",
            seed=5,
            checkpoint_path=ckpt,
            resume_from=ckpt,
        )
        second = read_trace(tmp_path / "second.jsonl")
        assert second[0].attrs["resumed"] is True
        assert not resumed.interrupted
        # the resumed run finishes the same optimization
        full = traced_run(problem, tmp_path / "full.jsonl", seed=5)
        assert resumed.makespan == full.makespan


class TestRunMetrics:
    def test_registry_populated(self, problem, tmp_path):
        registry = MetricsRegistry()
        ptg, cluster, table = problem
        result = emts5().schedule(
            ptg, cluster, table, rng=3, metrics=registry
        )
        assert (
            registry.value("emts.evaluations")
            == result.evaluation_stats.evaluations
        )
        assert registry.value("emts.makespan") == pytest.approx(
            result.makespan
        )
        assert registry.value("evaluation.batches") > 0
        assert registry.value("evaluation.genomes") > 0
        batch = registry.get("evaluation.batch_seconds")
        assert batch.total == registry.value("evaluation.batches")
        run_seconds = registry.get("emts.run_seconds")
        assert run_seconds.kind == "histogram" and run_seconds.total == 1
        assert run_seconds.sum == pytest.approx(result.elapsed_seconds)

class TestObservedEvaluator:
    def test_records_events_and_metrics(self, problem, tmp_path):
        ptg, _, table = problem
        path = tmp_path / "t.jsonl"
        registry = MetricsRegistry()
        tracer = Tracer(path)
        tracer.begin("run_start")
        with ObservedEvaluator(
            SerialEvaluator(ptg, table),
            tracer=tracer,
            metrics=registry,
        ) as evaluator:
            genome = make_allocator("mcpa").allocate(ptg, table)
            values = evaluator.evaluate([genome, genome])
        tracer.end("run_end")
        tracer.close()
        assert len(values) == 2
        events = [
            e for e in read_trace(path) if e.kind == "evaluation"
        ]
        assert len(events) == 1
        assert events[0].attrs == {
            "genomes": 2,
            "bounded": False,
            "rejected": 0,
        }
        assert registry.value("evaluation.genomes") == 2

    def test_stats_delegate(self, problem):
        ptg, _, table = problem
        inner = SerialEvaluator(ptg, table)
        evaluator = ObservedEvaluator(inner)
        genome = make_allocator("mcpa").allocate(ptg, table)
        evaluator.evaluate([genome])
        assert evaluator.stats is inner.stats
        evaluator.close()


class TestReportTrace:
    def test_report_of_full_run(self, problem, tmp_path):
        path = tmp_path / "run.jsonl"
        result = traced_run(problem, path)
        report = render_trace_report(path)
        assert "emts5" in report
        assert f"{result.makespan:.6g}" in report
        assert "phases" in report
        assert "fitness_batch" in report
        assert "evolve" in report
        assert "convergence" in report

    def test_report_of_crashed_run_names_incompleteness(
        self, problem, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        traced_run(problem, path)
        # drop the run_end line: a process that died mid-run
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        report = render_trace_report(path)
        assert "incomplete" in report


class TestCampaignTrace:
    def test_campaign_events_and_counters(self, problem, tmp_path):
        from repro.experiments import run_comparison_campaign

        ptg, cluster, table = problem
        path = tmp_path / "campaign.jsonl"
        registry = MetricsRegistry()
        _, campaign = run_comparison_campaign(
            {"fft": [ptg]},
            [cluster],
            SyntheticModel(),
            emts5(generations=1),
            [make_allocator("mcpa")],
            tmp_path / "campaign",
            seed=11,
            trace=path,
            metrics=registry,
        )
        events = read_trace(path)
        kinds = [e.kind for e in events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        trials = [e for e in events if e.kind == "campaign_trial"]
        assert len(trials) == 1
        assert trials[0].attrs["status"] == "ok"
        end = events[-1]
        assert end.attrs["completed"] == 1
        assert end.attrs["quarantined"] == 0
        assert registry.value("campaign.trials.ok") == 1
        assert campaign.complete


class TestMixedTraceReport:
    """``report-trace`` over files mixing service and run events."""

    def _mixed_trace(self, path):
        from repro.obs import Tracer

        with Tracer(path) as tracer:
            tracer.event(
                "request",
                attrs={"outcome": "accepted", "status": 202},
            )
            tracer.event("queue_wait", attrs={"priority": 0}, dur=0.0)
            tracer.begin("service_run_start", attrs={"attempt": 1})
            tracer.begin("run_start", attrs={"algorithm": "emts5"})
            tracer.event(
                "generation",
                attrs={
                    "generation": 1,
                    "best": 2.0,
                    "mean": 2.0,
                    "evaluations": 4,
                },
            )
            tracer.end(
                "run_end",
                attrs={"makespan": 2.0, "generations": 1},
            )
            # the worker's acceptance verify lands after run_end,
            # parented under the still-open service_run span
            tracer.event("verify", attrs={"verified": 4})
            tracer.end("service_run_end", attrs={"state": "done"})
            tracer.event("drain", attrs={"queued": 0})
        return path

    def test_service_kinds_do_not_break_the_report(self, tmp_path):
        from repro.obs import render_trace_report

        report = render_trace_report(
            self._mixed_trace(tmp_path / "mixed.jsonl")
        )
        assert "emts5" in report
        assert "makespan 2 s after 1 generations" in report

    def test_broken_nesting_raises(self, tmp_path):
        import json as _json

        from repro.obs import render_trace_report

        path = self._mixed_trace(tmp_path / "broken.jsonl")
        with path.open("a", encoding="utf-8") as fh:
            fh.write(
                _json.dumps(
                    {
                        "v": 2,
                        "kind": "generation",
                        "span": 99,
                        "parent": 77,  # nobody ever emitted span 77
                        "t": 9.0,
                        "attrs": {"generation": 2},
                    }
                )
                + "\n"
            )
        with pytest.raises(TraceError, match="structurally broken"):
            render_trace_report(path)

    def test_orphan_parenting_to_null_raises(self, tmp_path):
        import json as _json

        from repro.obs import render_trace_report

        path = tmp_path / "orphan.jsonl"
        path.write_text(
            _json.dumps(
                {
                    "v": 2,
                    "kind": "verify",
                    "span": 1,
                    "parent": None,
                    "t": 0.0,
                    "attrs": {"verified": 3},
                }
            )
            + "\n"
        )
        with pytest.raises(TraceError, match="structurally broken"):
            render_trace_report(path)
