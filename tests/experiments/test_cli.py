"""CLI runner tests."""

import argparse
import json

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
            ["run", "fig12", "--observe", "obs", "--hostprof", "p.json"])
        assert args.observe == "obs"
        assert args.hostprof == "p.json"

    def test_telemetry_flags_default_off(self):
        args = cli.build_parser().parse_args(["run", "fig12"])
        assert args.observe is None
        assert args.hostprof is None

    def test_run_takes_ten_settable_values(self):
        parser = cli.build_parser()
        run = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)
                   ).choices["run"]
        flags = [action.option_strings[0] for action in run._actions
                 if action.option_strings and action.dest != "help"]
        assert flags == ["--scale", "--seed", "--quick", "--faults",
                         "--service", "--jobs", "--cache", "--results",
                         "--observe", "--hostprof"]


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
        ("--results", "file"), ("--cache", "file"), ("--observe", "file"),
        ("--hostprof", "missing"), ("--hostprof", "directory"),
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


class TestRemovedFlags:
    """``--observe DIR`` replaced the seven observation flags."""

    @pytest.mark.parametrize("flag, value", [
        ("--trace", "t.json"), ("--spans", "s.jsonl"), ("--metrics", None),
        ("--timeseries", "ts.json"), ("--window", "500"),
        ("--profile", None), ("--report", "r.html"),
    ])
    def test_removed_flag_exits_2(self, flag, value, capsys):
        argv = ["tables", flag, *([] if value is None else [value])]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


def _observe(tmp_path, argv, name="observed"):
    """Run ``argv`` with ``--observe``; the directory it wrote."""
    directory = tmp_path / name
    assert cli.main([*argv, "--observe", str(directory)]) == 0
    return directory


class TestTelemetryFlags:
    def test_trace_and_spans_written_and_valid(self, tmp_path, capsys):
        from repro.telemetry import validate_perfetto
        from repro.telemetry.export import load_spanlog

        directory = _observe(tmp_path, ["fig12"])
        out = capsys.readouterr().out
        assert f"observation written to {directory}" in out
        document = json.loads((directory / "trace.json").read_text())
        assert validate_perfetto(document) == []
        lines = load_spanlog(str(directory / "spans.jsonl"))
        assert any(line["type"] == "span" for line in lines)
        assert any(line["type"] == "command" for line in lines)

    def test_observe_writes_metrics_summary(self, tmp_path, capsys):
        directory = _observe(tmp_path, ["run", "fig12"])
        summary = (directory / "metrics.txt").read_text()
        assert "sched.interleave.overlap_ns" in summary
        assert "phase_skip" in summary
        assert "metrics summary" not in capsys.readouterr().out

    def test_observed_stdout_is_unobserved_stdout_plus_one_line(
            self, tmp_path, capsys):
        assert cli.main(["fig12", "--quick"]) == 0
        plain = capsys.readouterr().out
        directory = _observe(tmp_path, ["fig12", "--quick"])
        assert (capsys.readouterr().out
                == plain + f"observation written to {directory}\n")
        assert sorted(path.name for path in directory.iterdir()) == [
            "dashboard.html", "metrics.txt", "profile.txt", "spans.jsonl",
            "timeseries.json", "trace.json"]

    def test_untraced_run_leaves_no_ambient_telemetry(self):
        from repro.telemetry import current_metrics, current_tracer
        cli.main(["run", "fig12"])
        assert not current_tracer().enabled
        assert not current_metrics().enabled


class TestTimeseriesFlags:
    def test_flags_parse_with_defaults(self):
        # The window is not settable: an observed run samples at the
        # default width.
        from repro.telemetry import DEFAULT_WINDOW_NS, Telemetry
        args = cli.build_parser().parse_args(
            ["run", "fig12", "--observe", "obs"])
        assert args.observe == "obs"
        assert not hasattr(args, "window")
        assert Telemetry().sampling.window_ns == DEFAULT_WINDOW_NS

    @pytest.mark.parametrize("window", ["0", "-1", "nan", "inf"])
    def test_bad_window_rejected(self, window):
        from repro.telemetry import SamplingConfig
        with pytest.raises(ValueError, match="window"):
            SamplingConfig(window_ns=float(window))

    def test_timeseries_written_and_valid(self, tmp_path, capsys):
        from repro.telemetry import (
            DEFAULT_WINDOW_NS,
            load_timeseries,
            validate_timeseries,
        )

        # fig12's runs end inside the first 1 µs window; fig18's span
        # many.
        directory = _observe(tmp_path, ["fig18", "--quick"])
        assert str(directory) in capsys.readouterr().out
        document = load_timeseries(str(directory / "timeseries.json"))
        assert validate_timeseries(document) == []
        assert document["window_ns"] == DEFAULT_WINDOW_NS
        assert any(".window." in name for name in document["series"])

    def test_report_includes_timeseries_section(self, tmp_path, capsys):
        directory = _observe(tmp_path, ["fig12", "--quick"])
        capsys.readouterr()
        text = (directory / "dashboard.html").read_text()
        assert "<h2>timeseries</h2>" in text
        assert "latency sketches" in text
        assert "spark" in text

    def test_watch_renders_exported_document(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        directory = _observe(tmp_path, ["fig12", "--quick"])
        capsys.readouterr()
        assert telemetry_main(["watch",
                               str(directory / "timeseries.json")]) == 0
        watched = capsys.readouterr().out
        assert "time series" in watched
        assert "p999" in watched

    def test_watch_rejects_invalid_document(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main as telemetry_main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}\n')
        assert telemetry_main(["watch", str(bad)]) == 1
        assert "schema" in capsys.readouterr().err
