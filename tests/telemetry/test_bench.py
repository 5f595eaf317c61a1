"""Benchmark trajectory: BENCH_*.json round-trip and compare verdicts."""

import json

import pytest

from repro.telemetry.bench import (
    BenchMetric,
    BenchReport,
    bench_filename,
    collect_provenance,
    compare,
    git_sha,
    load_bench,
    provenance_conflicts,
    render_compare,
    write_bench,
)


def _report(**metrics):
    return BenchReport(provenance={"git_sha": "abc1234"},
                       metrics=metrics)


# ----------------------------------------------------------------------
# Model and serialization
# ----------------------------------------------------------------------
def test_metric_validates_direction_and_nan():
    with pytest.raises(ValueError, match="better must be one of"):
        BenchMetric(value=1.0, better="sideways")
    with pytest.raises(ValueError, match="NaN"):
        BenchMetric(value=float("nan"))


def test_round_trip(tmp_path):
    report = _report(
        m=BenchMetric(value=1.5, better="higher", unit="x"))
    path = tmp_path / bench_filename("abc1234")
    write_bench(report, path)
    loaded = load_bench(path)
    assert loaded.metrics["m"].value == 1.5
    assert loaded.metrics["m"].better == "higher"
    assert loaded.provenance["git_sha"] == "abc1234"


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9", "metrics": {}}))
    with pytest.raises(ValueError, match="unsupported bench schema"):
        load_bench(path)


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedface")
    assert git_sha() == "feedface"


def test_collect_provenance_fields(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "cafe123")
    monkeypatch.delenv("REPRO_TIMESTAMP", raising=False)
    provenance = collect_provenance(scale=0.25, seed=1, agents=8)
    assert provenance["git_sha"] == "cafe123"
    assert provenance["scale"] == 0.25
    assert provenance["seed"] == 1
    assert provenance["agents"] == 8
    assert provenance["timestamp"].endswith("Z")
    # Who produced the numbers, nothing about the host machine.
    assert set(provenance) == {"git_sha", "timestamp", "python", "scale",
                               "seed", "agents"}


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_self_compare_reports_zero_regressions():
    report = _report(
        a=BenchMetric(value=3.0, better="higher"),
        b=BenchMetric(value=9.0, better="lower"))
    result = compare(report, report)
    assert result.regressions == []
    assert result.improvements == []
    assert all(d.verdict == "unchanged" for d in result.deltas)


def test_direction_aware_verdicts():
    baseline = _report(
        throughput=BenchMetric(value=100.0, better="higher"),
        latency=BenchMetric(value=100.0, better="lower"),
        shape=BenchMetric(value=100.0, better="neutral"))
    candidate = _report(
        throughput=BenchMetric(value=80.0, better="higher"),   # worse
        latency=BenchMetric(value=80.0, better="lower"),       # better
        shape=BenchMetric(value=42.0, better="neutral"))       # n/a
    result = compare(baseline, candidate, threshold=0.05)
    verdicts = {d.name: d.verdict for d in result.deltas}
    assert verdicts == {"throughput": "regression",
                        "latency": "improvement",
                        "shape": "neutral"}
    assert [d.name for d in result.regressions] == ["throughput"]


def test_threshold_suppresses_small_moves():
    baseline = _report(m=BenchMetric(value=100.0, better="lower"))
    candidate = _report(m=BenchMetric(value=104.0, better="lower"))
    assert compare(baseline, candidate,
                   threshold=0.05).regressions == []
    assert [d.name for d in compare(baseline, candidate,
                                    threshold=0.01).regressions] == ["m"]


def test_missing_and_added_metrics_tracked():
    baseline = _report(old=BenchMetric(value=1.0))
    candidate = _report(new=BenchMetric(value=2.0))
    result = compare(baseline, candidate)
    assert result.missing == ["old"]
    assert result.added == ["new"]
    assert result.deltas == []


# ----------------------------------------------------------------------
# measurement-configuration conflicts
# ----------------------------------------------------------------------
def _stamped(**extra):
    return BenchReport(provenance={"git_sha": "abc1234", **extra},
                       metrics={"m": BenchMetric(value=1.0)})


def test_matching_measurement_stamps_do_not_conflict():
    left = _stamped(sketch="log2[0,40)x16", timeseries_window_ns=1000.0)
    assert provenance_conflicts(left, left) == []


def test_mismatched_sketch_layouts_conflict():
    conflicts = provenance_conflicts(
        _stamped(sketch="log2[0,40)x16"),
        _stamped(sketch="log2[0,8)x8"))
    assert len(conflicts) == 1
    assert "log2[0,40)x16" in conflicts[0]
    assert "log2[0,8)x8" in conflicts[0]


def test_mismatched_service_plans_conflict():
    # SLO metrics from different traffic plans are different
    # measurements: the service stamp must gate compare like the
    # sketch layout stamp does.
    conflicts = provenance_conflicts(
        _stamped(service="none"),
        _stamped(service="seed=7,rate=8e5"))
    assert len(conflicts) == 1
    assert "service" in conflicts[0]
    assert "seed=7,rate=8e5" in conflicts[0]


def test_compare_cli_refuses_mismatched_service_plans(tmp_path, capsys):
    from repro.telemetry.__main__ import main as telemetry_main

    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    write_bench(_stamped(service="none"), baseline)
    write_bench(_stamped(service="seed=7,rate=8e5"), candidate)
    assert telemetry_main(["compare", str(baseline),
                           str(candidate)]) == 2
    err = capsys.readouterr().err
    assert "refusing to compare" in err
    assert "service" in err


def test_legacy_report_without_stamp_still_compares():
    # Older baselines predate the stamps; only keys present on BOTH
    # sides can conflict, so compare keeps working across the boundary.
    assert provenance_conflicts(
        _stamped(), _stamped(sketch="log2[0,40)x16")) == []


def test_compare_cli_refuses_mismatched_stamps(tmp_path, capsys):
    from repro.telemetry.__main__ import main as telemetry_main

    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    write_bench(_stamped(timeseries_window_ns=1000.0), baseline)
    write_bench(_stamped(timeseries_window_ns=250.0), candidate)
    assert telemetry_main(["compare", str(baseline),
                           str(candidate)]) == 2
    err = capsys.readouterr().err
    assert "refusing to compare" in err
    assert "timeseries_window_ns" in err


def test_zero_baseline_regression_is_flagged():
    baseline = _report(m=BenchMetric(value=0.0, better="lower"))
    candidate = _report(m=BenchMetric(value=5.0, better="lower"))
    result = compare(baseline, candidate)
    assert [d.name for d in result.regressions] == ["m"]


def test_negative_threshold_rejected():
    report = _report(m=BenchMetric(value=1.0))
    with pytest.raises(ValueError, match="threshold"):
        compare(report, report, threshold=-0.1)


def test_render_compare_mentions_each_metric():
    baseline = _report(m=BenchMetric(value=100.0, better="lower"),
                       gone=BenchMetric(value=1.0))
    candidate = _report(m=BenchMetric(value=150.0, better="lower"))
    text = render_compare(compare(baseline, candidate))
    assert "m" in text and "regression" in text
    assert "gone" in text and "missing" in text
    assert "1 regression(s)" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_compare_exit_codes(tmp_path, capsys):
    from repro.telemetry.__main__ import main

    good = _report(m=BenchMetric(value=100.0, better="lower"))
    bad = _report(m=BenchMetric(value=200.0, better="lower"))
    good_path = tmp_path / "BENCH_base.json"
    bad_path = tmp_path / "BENCH_cand.json"
    write_bench(good, good_path)
    write_bench(bad, bad_path)
    assert main(["compare", str(good_path), str(good_path)]) == 0
    assert main(["compare", str(good_path), str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "regression" in out
    assert main(["compare", str(good_path),
                 str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["merge", "out.json", "fragment.json"],
    ["compare", "base.json", "cand.json", "--json"],
])
def test_cli_removed_commands_exit_2(argv, capsys):
    from repro.telemetry.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
