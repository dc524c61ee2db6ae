"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import load_ptg


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--kind", "fft", "--size", "8", "out.json"]
        )
        assert args.kind == "fft"
        assert args.size == 8


class TestGenerate:
    def test_fft_json(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(
            [
                "generate",
                "--kind",
                "fft",
                "--size",
                "4",
                "--seed",
                "1",
                str(out),
            ]
        )
        assert rc == 0
        g = load_ptg(out)
        assert g.num_tasks == 15
        assert "15 tasks" in capsys.readouterr().out

    def test_daggen_dot(self, tmp_path):
        out = tmp_path / "g.dot"
        rc = main(
            [
                "generate",
                "--kind",
                "daggen",
                "--size",
                "20",
                "--seed",
                "2",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().startswith("digraph")

    def test_strassen(self, tmp_path):
        out = tmp_path / "s.json"
        main(
            ["generate", "--kind", "strassen", "--seed", "3", str(out)]
        )
        assert load_ptg(out).num_tasks == 23


class TestSchedule:
    def test_heuristic_on_generated(self, capsys):
        rc = main(
            [
                "schedule",
                "--kind",
                "fft",
                "--size",
                "4",
                "--seed",
                "1",
                "--platform",
                "chti",
                "--algorithm",
                "mcpa",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mcpa" in out
        assert "makespan" in out

    def test_emts_on_file(self, tmp_path, capsys):
        ptg_file = tmp_path / "g.json"
        main(
            [
                "generate",
                "--kind",
                "fft",
                "--size",
                "4",
                "--seed",
                "1",
                str(ptg_file),
            ]
        )
        capsys.readouterr()
        rc = main(
            [
                "schedule",
                "--ptg",
                str(ptg_file),
                "--algorithm",
                "emts5",
                "--seed",
                "4",
                "--model",
                "model2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed mcpa" in out
        assert "opt. time" in out
        assert "evaluator" in out  # evaluation-engine statistics line

    def test_evaluator_flags(self, capsys):
        """--verify configures the fitness engine without changing
        the computed schedule."""

        def run(extra):
            rc = main(
                [
                    "schedule",
                    "--kind",
                    "strassen",
                    "--seed",
                    "6",
                    "--algorithm",
                    "emts5",
                ]
                + extra
            )
            assert rc == 0
            out = capsys.readouterr().out
            makespan = next(
                line for line in out.splitlines() if "makespan" in line
            )
            return makespan, out

        base_ms, base_out = run([])
        assert "mapper calls" in base_out
        verified_ms, _ = run(["--verify", "full"])
        assert base_ms == verified_ms

    def test_evaluator_flag_defaults(self):
        args = build_parser().parse_args(
            ["schedule", "--kind", "strassen"]
        )
        assert args.verify == "off"
        assert args.islands is False

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["schedule", "--kind", "strassen", "--workers", "2"]
            )
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_island_shard_count_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["schedule", "--kind", "strassen", "--islands", "2"]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: 2" in capsys.readouterr().err

    def test_report_trace_service_flag_is_gone(self, capsys):
        # a directory argument is all report-trace needs
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["report-trace", "d", "--service"])
        assert exc.value.code == 2
        assert "--service" in capsys.readouterr().err

    def test_gantt_flag(self, capsys):
        main(
            [
                "schedule",
                "--kind",
                "strassen",
                "--seed",
                "2",
                "--platform",
                "chti",
                "--algorithm",
                "serial",
                "--gantt",
            ]
        )
        assert "P  0 |" in capsys.readouterr().out

    def test_svg_output(self, tmp_path, capsys):
        svg = tmp_path / "g.svg"
        main(
            [
                "schedule",
                "--kind",
                "strassen",
                "--seed",
                "2",
                "--algorithm",
                "mcpa",
                "--svg",
                str(svg),
            ]
        )
        assert svg.read_text().startswith("<svg")

    def test_profile_flag(self, tmp_path, capsys):
        """--profile dumps loadable cProfile stats and prints the
        hot-path table without altering the scheduling output."""
        import pstats

        stats_file = tmp_path / "schedule.prof"
        rc = main(
            [
                "schedule",
                "--kind",
                "strassen",
                "--seed",
                "2",
                "--platform",
                "chti",
                "--algorithm",
                "mcpa",
                "--profile",
                str(stats_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "cumulative time" in out
        assert f"wrote profile stats -> {stats_file}" in out
        loaded = pstats.Stats(str(stats_file))
        assert len(loaded.stats) > 0

    def test_profile_flag_default_off(self):
        args = build_parser().parse_args(
            ["schedule", "--kind", "strassen"]
        )
        assert args.profile is None

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(
                [
                    "schedule",
                    "--kind",
                    "fft",
                    "--size",
                    "4",
                    "--algorithm",
                    "nope",
                ]
            )

    def test_unknown_model(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(
                [
                    "schedule",
                    "--kind",
                    "fft",
                    "--size",
                    "4",
                    "--model",
                    "nope",
                ]
            )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--islands", "--migration-interval", "-2"],
            ["--islands", "--migration-interval", "0"],
        ],
    )
    def test_bad_island_flags_exit_cleanly(self, flags):
        """Invalid island parameters are a SystemExit message, not a
        ConfigurationError traceback."""
        with pytest.raises(SystemExit, match="configuration error"):
            main(
                [
                    "schedule", "--kind", "fft", "--size", "4",
                    "--algorithm", "emts5", *flags,
                ]
            )

    def test_checkpoint_and_resume_flags(self, tmp_path, capsys):
        """--checkpoint writes a resumable file; --resume reproduces
        the uninterrupted run's makespan bit-identically."""
        from repro.core import load_checkpoint

        ckpt = tmp_path / "run.ckpt"
        base_args = [
            "schedule", "--kind", "fft", "--size", "4",
            "--seed", "6", "--algorithm", "emts5",
        ]
        rc = main(base_args + ["--checkpoint", str(ckpt)])
        assert rc == 0
        first = capsys.readouterr().out
        assert load_checkpoint(ckpt).completed
        # a time-budgeted run stops early but still reports a result
        rc = main(base_args + [
            "--checkpoint", str(tmp_path / "cut.ckpt"),
            "--max-wall-time", "1e-6",
        ])
        assert rc == 0
        cut = capsys.readouterr().out
        assert "interrupted: stopped after generation" in cut
        assert "--resume" in cut
        rc = main(base_args + ["--resume", str(tmp_path / "cut.ckpt")])
        assert rc == 0
        resumed = capsys.readouterr().out
        line = next(
            ln for ln in first.splitlines() if ln.startswith("makespan")
        )
        assert line in resumed

    def test_resume_flags_rejected_for_heuristics(self, tmp_path):
        with pytest.raises(SystemExit, match="only apply to EMTS"):
            main(
                [
                    "schedule", "--kind", "fft", "--size", "4",
                    "--algorithm", "mcpa",
                    "--checkpoint", str(tmp_path / "x.ckpt"),
                ]
            )

    def test_resume_from_bad_checkpoint_exits_cleanly(self, tmp_path):
        """A missing/mismatched checkpoint is a SystemExit message,
        not a traceback."""
        with pytest.raises(SystemExit, match="checkpoint error"):
            main(
                [
                    "schedule", "--kind", "fft", "--size", "4",
                    "--algorithm", "emts5",
                    "--resume", str(tmp_path / "missing.ckpt"),
                ]
            )

    def test_resilience_flag_defaults(self):
        args = build_parser().parse_args(
            ["schedule", "--kind", "strassen"]
        )
        assert args.checkpoint is None
        assert args.resume is None
        assert args.max_wall_time is None


class TestOnline:
    ARGS = [
        "online",
        "--kind",
        "fft",
        "--size",
        "4",
        "--seed",
        "1",
        "--algorithm",
        "mcpa",
    ]

    def test_fault_free_run_completes(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "outcome   : completed" in out
        assert "verified  : True" in out
        assert "0 crashes, 0 failures, 0 stragglers" in out

    def test_faulty_run_reports_reactions(self, capsys):
        rc = main(
            self.ARGS
            + [
                "--failure-rate",
                "0.3",
                "--straggler-rate",
                "0.3",
                "--fault-seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "outcome   : completed" in out
        assert "replans   :" in out

    def test_impossible_deadline_exit_code(self, capsys):
        rc = main(self.ARGS + ["--deadline-factor", "0.5"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "outcome   : deadline-missed" in out
        assert "reason    :" in out

    def test_aborted_exit_code(self, capsys):
        rc = main(
            self.ARGS
            + [
                "--failure-rate",
                "1.0",
                "--max-retries",
                "0",
                "--fault-seed",
                "3",
            ]
        )
        assert rc == 4
        out = capsys.readouterr().out
        assert "outcome   : aborted" in out
        assert "retry budget" in out

    def test_deadline_flags_are_exclusive(self):
        with pytest.raises(SystemExit, match="mutually"):
            main(
                self.ARGS
                + ["--deadline", "10", "--deadline-factor", "2.0"]
            )

    def test_bad_rate_rejected(self):
        with pytest.raises(SystemExit, match="rates"):
            main(self.ARGS + ["--failure-rate", "1.5"])

    def test_trace_and_metrics_outputs(self, tmp_path, capsys):
        trace = tmp_path / "online.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(
            self.ARGS
            + [
                "--failure-rate",
                "0.3",
                "--fault-seed",
                "3",
                "--trace",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        assert trace.exists()
        doc = json.loads(metrics.read_text())
        assert any(k.startswith("online.") for k in doc)
        # the trace digest renders the online section
        rc = main(["report-trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "online    :" in out
        assert "outcome : completed" in out


class TestFigures:
    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "non-monotone" in capsys.readouterr().out

    def test_figure2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "individual I" in capsys.readouterr().out

    def test_figure3(self, capsys):
        assert (
            main(["figure", "3", "--samples", "20000"]) == 0
        )
        assert "shrink mass" in capsys.readouterr().out

    def test_figure6_with_svg_output(self, tmp_path, capsys):
        rc = main(
            [
                "figure",
                "6",
                "--seed",
                "3",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "relative makespan" in out
        assert (tmp_path / "figure6_mcpa.svg").exists()
        assert (tmp_path / "figure6_emts10.svg").exists()

    def test_unknown_figure(self):
        with pytest.raises(SystemExit, match="no figure"):
            main(["figure", "9"])

    def test_non_numeric_figure(self):
        with pytest.raises(SystemExit, match="1-6 or 'all'"):
            main(["figure", "seven"])


class TestRuntime:
    def test_runtime_table(self, capsys):
        rc = main(["runtime", "--repetitions", "1", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paper mean" in out
        assert "emts10" in out

    def test_runtime_profile_flag(self, tmp_path, capsys):
        stats_file = tmp_path / "runtime.prof"
        rc = main(
            [
                "runtime",
                "--repetitions",
                "1",
                "--seed",
                "1",
                "--profile",
                str(stats_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "paper mean" in out
        assert "cumulative time" in out
        assert stats_file.exists()


class TestExtensionCommands:
    def test_scalability(self, capsys):
        rc = main(
            [
                "scalability",
                "--size",
                "15",
                "--instances",
                "2",
                "--sizes",
                "4,16",
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "T_mcpa/T_emts5" in out
        assert "trend" in out

    def test_convergence(self, capsys):
        rc = main(
            [
                "convergence",
                "--size",
                "15",
                "--instances",
                "2",
                "--seed",
                "1",
                "--platform",
                "chti",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best/seed (emts5)" in out
        assert "final mean improvement" in out

    def test_cpr_algorithm_available(self, capsys):
        rc = main(
            [
                "schedule",
                "--kind",
                "strassen",
                "--seed",
                "2",
                "--platform",
                "chti",
                "--algorithm",
                "cpr",
            ]
        )
        assert rc == 0
        assert "cpr" in capsys.readouterr().out


class TestCorpus:
    def test_summary(self, capsys):
        rc = main(["corpus", "--scale", "0.01", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fft=4" in out

    def test_save(self, tmp_path, capsys):
        out_file = tmp_path / "corpus.json"
        main(
            [
                "corpus",
                "--scale",
                "0.01",
                "--seed",
                "1",
                "--output",
                str(out_file),
            ]
        )
        doc = json.loads(out_file.read_text())
        assert doc["format"] == "repro-ptg-corpus"


class TestObservability:
    def run_traced(self, tmp_path, *extra):
        trace = tmp_path / "run.jsonl"
        rc = main(
            [
                "schedule",
                "--kind",
                "fft",
                "--size",
                "4",
                "--seed",
                "7",
                "--platform",
                "chti",
                "--algorithm",
                "emts5",
                "--trace",
                str(trace),
                *extra,
            ]
        )
        return rc, trace

    def test_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs import read_trace

        rc, trace = self.run_traced(tmp_path)
        assert rc == 0
        assert "wrote trace" in capsys.readouterr().out
        events = read_trace(trace)
        assert events[0].kind == "run_start"
        assert events[-1].kind == "run_end"

    def test_report_trace_subcommand(self, tmp_path, capsys):
        _, trace = self.run_traced(tmp_path)
        capsys.readouterr()
        rc = main(["report-trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "emts5" in out
        assert "phases" in out

    def test_report_trace_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"torn\n')
        with pytest.raises(SystemExit) as err:
            main(["report-trace", str(bad)])
        assert "not valid JSON" in str(err.value)

    def test_report_trace_missing_file(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["report-trace", str(tmp_path / "nope.jsonl")])
        assert "cannot read" in str(err.value)

    def test_metrics_out_json(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc, _ = self.run_traced(tmp_path, "--metrics-out", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["emts.evaluations"]["value"] > 0

    def test_metrics_out_prometheus(self, tmp_path):
        out = tmp_path / "metrics.prom"
        rc, _ = self.run_traced(tmp_path, "--metrics-out", str(out))
        assert rc == 0
        text = out.read_text()
        assert "# TYPE repro_emts_evaluations counter" in text

    def test_trace_rejected_for_heuristics(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "schedule",
                    "--kind",
                    "fft",
                    "--size",
                    "4",
                    "--seed",
                    "1",
                    "--algorithm",
                    "mcpa",
                    "--trace",
                    str(tmp_path / "t.jsonl"),
                ]
            )
        assert "--trace/--metrics-out" in str(err.value)

    def test_log_level_flag(self, tmp_path, capsys):
        rc, _ = self.run_traced(tmp_path)
        assert rc == 0
        import logging

        root = logging.getLogger("repro")
        assert len(root.handlers) == 1

    def test_log_flags_parse(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--log-json", "corpus"]
        )
        assert args.log_level == "debug"
        assert args.log_json is True
