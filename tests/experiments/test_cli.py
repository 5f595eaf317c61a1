"""CLI runner tests."""

import pytest

from repro.experiments import cli


class TestParser:
    def test_list_command(self):
        args = cli.build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = cli.build_parser().parse_args(["run", "fig12"])
        assert args.experiment == "fig12"
        assert args.scale == 0.25
        assert not args.quick

    def test_quick_config(self):
        args = cli.build_parser().parse_args(["run", "fig15", "--quick"])
        config = cli.config_from_args(args)
        assert config.agents == 3
        assert config.workloads == ("gemver", "doitg")

    def test_scale_config(self):
        args = cli.build_parser().parse_args(
            ["run", "fig15", "--scale", "0.1", "--seed", "9"])
        config = cli.config_from_args(args)
        assert config.scale == 0.1
        assert config.seed == 9

    def test_telemetry_flags(self):
        args = cli.build_parser().parse_args(
            ["run", "fig12", "--trace", "t.json", "--spans", "s.jsonl",
             "--metrics"])
        assert args.trace == "t.json"
        assert args.spans == "s.jsonl"
        assert args.metrics

    def test_telemetry_flags_default_off(self):
        args = cli.build_parser().parse_args(["run", "fig12"])
        assert args.trace is None
        assert args.spans is None
        assert not args.metrics


class TestNormalizeArgv:
    def test_bare_experiment_gets_implicit_run(self):
        assert cli.normalize_argv(["fig12"]) == ["run", "fig12"]
        assert cli.normalize_argv(["fig12", "--quick"]) == [
            "run", "fig12", "--quick"]

    def test_subcommands_pass_through(self):
        assert cli.normalize_argv(["list"]) == ["list"]
        assert cli.normalize_argv(["run", "fig12"]) == ["run", "fig12"]

    def test_flags_and_empty_pass_through(self):
        assert cli.normalize_argv([]) == []
        assert cli.normalize_argv(["--help"]) == ["--help"]


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in cli.EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert cli.main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_tables(self, capsys):
        assert cli.main(["run", "tables"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_run_fig12(self, capsys):
        assert cli.main(["run", "fig12"]) == 0
        assert "interleaving" in capsys.readouterr().out

    def test_run_fig07_quick(self, capsys):
        assert cli.main(["run", "fig07", "--quick"]) == 0
        assert "firmware" in capsys.readouterr().out

    def test_every_registered_experiment_has_description(self):
        for name, (description, run_fn) in cli.EXPERIMENTS.items():
            assert description
            assert callable(run_fn)

    def test_implicit_run_subcommand(self, capsys):
        assert cli.main(["fig12"]) == 0
        assert "interleaving" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_scale_rejected(self, scale, capsys):
        assert cli.main(["fig01", "--scale", scale]) == 2
        captured = capsys.readouterr()
        assert "--scale" in captured.err
        assert captured.out == ""


class TestDestinationFlags:
    """Unwritable outputs fail before any cell is simulated."""

    @pytest.mark.parametrize("flag, kind", [
        ("--results", "file"), ("--cache", "file"),
        ("--trace", "missing"), ("--spans", "missing"),
        ("--timeseries", "missing"), ("--report", "missing"),
        ("--hostprof", "missing"), ("--trace", "directory"),
    ])
    def test_bad_destination_rejected(self, flag, kind, tmp_path, capsys):
        existing = tmp_path / "file"
        existing.write_text("")
        target = {"file": existing,
                  "missing": tmp_path / "missing" / "out",
                  "directory": tmp_path}[kind]
        assert cli.main(["tables", flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert existing.read_text() == ""


class TestTelemetryFlags:
    def test_trace_and_spans_written_and_valid(self, tmp_path, capsys):
        from repro.telemetry import validate_perfetto
        from repro.telemetry.export import load_spanlog
        import json

        trace = tmp_path / "fig12.json"
        spans = tmp_path / "fig12.jsonl"
        assert cli.main(["fig12", "--trace", str(trace),
                         "--spans", str(spans)]) == 0
        out = capsys.readouterr().out
        assert str(trace) in out
        document = json.loads(trace.read_text())
        assert validate_perfetto(document) == []
        lines = load_spanlog(str(spans))
        assert any(line["type"] == "span" for line in lines)
        assert any(line["type"] == "command" for line in lines)

    def test_metrics_flag_prints_summary(self, capsys):
        assert cli.main(["run", "fig12", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert "sched.interleave.overlap_ns" in out
        assert "phase_skip" in out

    def test_untraced_run_leaves_no_ambient_telemetry(self):
        from repro.telemetry import current_metrics, current_tracer
        cli.main(["run", "fig12"])
        assert not current_tracer().enabled
        assert not current_metrics().enabled


class TestTimeseriesFlags:
    def test_flags_parse_with_defaults(self):
        from repro.telemetry import DEFAULT_WINDOW_NS
        args = cli.build_parser().parse_args(
            ["run", "fig12", "--timeseries", "ts.json"])
        assert args.timeseries == "ts.json"
        assert args.window == DEFAULT_WINDOW_NS
        assert cli.build_parser().parse_args(
            ["run", "fig12"]).timeseries is None

    @pytest.mark.parametrize("window", ["0", "-1", "nan", "inf"])
    def test_bad_window_rejected(self, window, capsys):
        assert cli.main(["fig12", "--quick", "--timeseries", "x.json",
                         "--window", window]) == 2
        assert "--window" in capsys.readouterr().err

    def test_timeseries_written_and_valid(self, tmp_path, capsys):
        from repro.telemetry import load_timeseries, validate_timeseries

        out = tmp_path / "ts.json"
        assert cli.main(["fig12", "--quick", "--timeseries", str(out),
                         "--window", "500"]) == 0
        assert str(out) in capsys.readouterr().out
        document = load_timeseries(str(out))
        assert validate_timeseries(document) == []
        assert document["window_ns"] == 500.0
        assert any(".window." in name for name in document["series"])

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "ts.csv"
        assert cli.main(["fig12", "--quick", "--timeseries", str(out),
                         "--window", "500"]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("series,t,v")

    def test_report_includes_timeseries_section(self, tmp_path, capsys):
        report = tmp_path / "report.html"
        ts = tmp_path / "ts.json"
        assert cli.main(["fig12", "--quick", "--timeseries", str(ts),
                         "--window", "500",
                         "--report", str(report)]) == 0
        capsys.readouterr()
        text = report.read_text()
        assert "<h2>timeseries</h2>" in text
        assert "latency sketches" in text
        assert "spark" in text

    def test_watch_renders_exported_document(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        out = tmp_path / "ts.json"
        assert cli.main(["fig12", "--quick", "--timeseries", str(out),
                         "--window", "500"]) == 0
        capsys.readouterr()
        assert telemetry_main(["watch", str(out)]) == 0
        watched = capsys.readouterr().out
        assert "time series" in watched
        assert "p999" in watched

    def test_watch_rejects_invalid_document(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}\n')
        assert telemetry_main(["watch", str(bad)]) == 1
        assert "schema" in capsys.readouterr().err
