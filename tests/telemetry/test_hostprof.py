"""Host wall-clock profiler: attribution, census, exports, CLI."""

import itertools
import json

import pytest

from repro.experiments import cli
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentConfig
from repro.sim import KernelScope, Simulator
from repro.sim.hostprof import current_hostprof, use_hostprof
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.bench import (
    BenchMetric,
    BenchReport,
    bench_filename,
    has_host_metrics,
    host_conflicts,
    host_environment,
    write_bench,
)
from repro.telemetry.dashboard import render_html
from repro.telemetry.fragments import capture_hostprof, merge_hostprof
from repro.telemetry.hostprof import (
    KERNEL_BUCKET,
    HostProfiler,
    classify_event,
    collapsed_stacks,
    load_speedscope,
    parse_collapsed,
    render_flame,
    render_summary,
    speedscope_document,
    validate_speedscope,
    write_collapsed,
    write_hostprof,
    write_speedscope,
)
from repro.telemetry.timeseries import supports_unicode


def _stub_clock(step: int = 100):
    """Deterministic monotonic clock: 0, step, 2*step, ..."""
    counter = itertools.count(0, step)
    return lambda: next(counter)


def _module_worker(env):
    yield env.timeout(5)


def _drive(profiler):
    """Two processes and a pure-kernel event under the profiler."""
    with use_hostprof(profiler):
        sim = Simulator()

        def worker(env, rounds):
            for _ in range(rounds):
                yield env.timeout(10)

        sim.process(worker(sim, 3), name="alpha")
        sim.process(worker(sim, 2), name="beta")
        orphan = sim.event("orphan")
        orphan.succeed()
        sim.run()
    return sim


class TestAttribution:
    def test_buckets_tile_the_run(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        # Stubbed clock: begin/end bracket everything, so the bucket
        # sum must equal the whole bracketed interval exactly.
        assert profiler.total_ns() == profiler.run_ns
        assert profiler.attributed_fraction(profiler.run_ns) == 1.0
        assert profiler.runs == 1

    def test_kernel_gaps_land_in_the_kernel_bucket(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        assert profiler.buckets[KERNEL_BUCKET] > 0

    def test_process_buckets_carry_component_and_phase(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        processes = {key[1] for key in profiler.buckets}
        assert {"alpha", "beta"} <= processes
        # Nested generator: qualname "_drive.<locals>.worker" splits to
        # component "_drive" (the enclosing scope), phase "worker".
        assert any(key[0] == "_drive" and key[2] == "worker"
                   for key in profiler.buckets)

    def test_module_level_generator_is_toplevel(self):
        profiler = HostProfiler(clock=_stub_clock())
        with use_hostprof(profiler):
            sim = Simulator()
            sim.process(_module_worker(sim), name="solo")
            sim.run()
        assert any(key[0] == "toplevel" and key[2] == "_module_worker"
                   for key in profiler.buckets)

    def test_stub_clock_exports_are_reproducible(self):
        runs = []
        for _ in range(2):
            profiler = HostProfiler(clock=_stub_clock())
            _drive(profiler)
            runs.append((collapsed_stacks(profiler),
                         json.dumps(speedscope_document(profiler),
                                    sort_keys=True)))
        assert runs[0] == runs[1]

    def test_steps_are_profiled_as_runs_of_one_dispatch(self):
        profiler = HostProfiler(clock=_stub_clock())
        with use_hostprof(profiler):
            sim = Simulator()
            sim.process(_module_worker(sim), name="solo")
            sim.step()
            sim.step()
        assert profiler.runs == 2
        assert profiler.total_ns() == profiler.run_ns
        assert profiler.census()["dispatches"] == {"Timeout": 1,
                                                   "bootstrap": 1}

    def test_explicit_constructor_hook_wins_over_ambient(self):
        explicit = HostProfiler(clock=_stub_clock())
        ambient = HostProfiler(clock=_stub_clock())

        def noop(env):
            yield env.timeout(1)

        with use_hostprof(ambient):
            sim = Simulator(scope=KernelScope(hostprof=explicit))
            sim.process(noop(sim), name="noop")
            sim.run()
        assert explicit.runs == 1
        assert ambient.runs == 0

    def test_no_profiler_means_no_hook(self):
        assert current_hostprof() is None
        sim = Simulator()
        assert sim._observer is None


class TestCensus:
    def test_census_counts_and_batches(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        census = profiler.census()
        # 2 bootstraps + 5 timeouts + 1 orphan Event + 2 Process
        # completions, all admitted through the schedule census too.
        assert census["dispatches"]["Timeout"] == 5
        assert census["dispatches"]["bootstrap"] == 2
        assert sum(census["dispatches"].values()) == \
            sum(census["schedules"].values())
        assert sum(census["batch_sizes"]) == \
            sum(census["dispatches"].values())

    def test_census_is_host_time_free(self):
        fast = HostProfiler(clock=_stub_clock(100))
        slow = HostProfiler(clock=_stub_clock(7777))
        _drive(fast)
        _drive(slow)
        assert fast.census() == slow.census()
        assert fast.total_ns() != slow.total_ns()

    def test_classify_event_kind_specials(self):
        profiler = HostProfiler(clock=_stub_clock())
        sim = _drive(profiler)
        # Named kernel-glue plain events profile as their role; with no
        # waiting process they fall back to the kernel-idle bucket.
        boot = sim.event("alpha.bootstrap")
        assert classify_event(boot, []) == (
            "kernel", "-", "idle", "bootstrap")
        plain = sim.event("some.event")
        assert classify_event(plain, [])[3] == "Event"


class TestMergeAndFragments:
    def test_merge_is_associative(self):
        parts = []
        for step in (100, 300, 900):
            profiler = HostProfiler(clock=_stub_clock(step))
            _drive(profiler)
            parts.append(profiler.to_payload())

        def fold(order):
            target = HostProfiler()
            for payload in order:
                target.merge(HostProfiler.from_payload(payload))
            return target.to_payload()

        left = fold([parts[0], parts[1], parts[2]])
        pre = HostProfiler.from_payload(parts[1])
        pre.merge(HostProfiler.from_payload(parts[2]))
        right = HostProfiler.from_payload(parts[0])
        right.merge(pre)
        assert left == right.to_payload()

    def test_payload_round_trip(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        clone = HostProfiler.from_payload(profiler.to_payload())
        assert clone.to_payload() == profiler.to_payload()
        assert clone.census() == profiler.census()

    def test_fragment_capture_and_merge(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        fragment = capture_hostprof(profiler)
        assert len(fragment) == len(profiler.buckets)
        target = HostProfiler()
        merge_hostprof(target, fragment)
        assert target.census() == profiler.census()

    def test_serial_and_sharded_census_identical(self):
        config = ExperimentConfig(scale=0.05, seed=1, agents=3,
                                  workloads=("gemver", "doitg"))
        censuses = []
        for jobs in (1, 2):
            profiler = HostProfiler()
            with use_hostprof(profiler):
                run_cells({"fig12": cli.experiment_cells("fig12", config)},
                          config, jobs=jobs)
            censuses.append(profiler.census())
        assert censuses[0] == censuses[1]


class TestExports:
    def test_collapsed_round_trip(self, tmp_path):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        path = tmp_path / "profile.collapsed"
        write_collapsed(profiler, str(path))
        parsed = parse_collapsed(path.read_text().splitlines())
        assert parsed == profiler.buckets

    def test_parse_collapsed_rejects_malformed(self):
        with pytest.raises(ValueError, match="not a collapsed stack"):
            parse_collapsed(["a;b;c;d notanumber"])
        with pytest.raises(ValueError, match="4 fields"):
            parse_collapsed(["a;b 12"])

    def test_speedscope_document_validates(self, tmp_path):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        path = tmp_path / "profile.json"
        write_speedscope(profiler, str(path))
        document = load_speedscope(str(path))
        assert validate_speedscope(document) == []
        profile = document["profiles"][0]
        assert sum(profile["weights"]) == profiler.total_ns()
        assert len(profile["samples"]) == len(profiler.buckets)

    def test_validate_speedscope_flags_corruption(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        document = speedscope_document(profiler)
        document["profiles"][0]["weights"][0] += 1
        assert any("weights sum" in problem
                   for problem in validate_speedscope(document))
        document = speedscope_document(profiler)
        document["profiles"][0]["samples"][0] = [999]
        assert any("unknown frames" in problem
                   for problem in validate_speedscope(document))
        assert validate_speedscope([]) == ["document is not a JSON object"]

    def test_write_hostprof_suffix_dispatch(self, tmp_path):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        assert write_hostprof(
            profiler, str(tmp_path / "p.collapsed")) == "collapsed"
        assert write_hostprof(
            profiler, str(tmp_path / "p.json")) == "speedscope"
        assert validate_speedscope(
            load_speedscope(str(tmp_path / "p.json"))) == []

    def test_bench_metrics_are_neutral_ns(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        metrics = profiler.bench_metrics()
        assert metrics["host_ns.total"].value == float(profiler.total_ns())
        assert all(metric.better == "neutral" and metric.unit == "ns"
                   for metric in metrics.values())
        assert "host_ns.kernel" in metrics


class TestRendering:
    def test_render_flame_and_summary(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        flame = render_flame(speedscope_document(profiler), top=3)
        assert "hostprof:" in flame and "█" in flame
        assert "more bucket(s)" in flame
        summary = render_summary(profiler)
        assert "census:" in summary and "by component:" in summary

    def test_ascii_mode_uses_no_unicode(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        flame = render_flame(speedscope_document(profiler), ascii_=True)
        summary = render_summary(profiler, ascii_=True)
        for text in (flame, summary):
            text.encode("ascii")  # raises if any unicode glyph leaked

    def test_supports_unicode_detection(self, monkeypatch):
        monkeypatch.setenv("TERM", "dumb")
        assert not supports_unicode()
        monkeypatch.setenv("TERM", "xterm-256color")

        class Stream:
            encoding = "ascii"

        assert not supports_unicode(Stream())
        Stream.encoding = "utf-8"
        assert supports_unicode(Stream())

    def test_dashboard_hostprof_section(self):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        page = render_html([], hostprof=profiler.to_payload())
        assert "host profile" in page
        assert "kernel / - / drain / -" in page
        assert "host profile" not in render_html([])


class TestExperimentsCli:
    def test_hostprof_flag_writes_speedscope(self, tmp_path, capsys):
        out = tmp_path / "flame.json"
        assert cli.main(["fig12", "--quick",
                         "--hostprof", str(out)]) == 0
        assert validate_speedscope(load_speedscope(str(out))) == []
        captured = capsys.readouterr().out
        assert "host profile (speedscope) written" in captured
        assert "census:" in captured

    def test_hostprof_flag_writes_collapsed(self, tmp_path, capsys):
        out = tmp_path / "flame.collapsed"
        assert cli.main(["fig12", "--quick",
                         "--hostprof", str(out)]) == 0
        assert parse_collapsed(out.read_text().splitlines())
        assert "host profile (collapsed) written" in \
            capsys.readouterr().out

    def test_hostprof_with_jobs_merges_fragments(self, tmp_path, capsys):
        out = tmp_path / "flame.json"
        assert cli.main(["fig12,fig13", "--quick", "--jobs", "2",
                         "--hostprof", str(out)]) == 0
        document = load_speedscope(str(out))
        assert validate_speedscope(document) == []
        assert document["profiles"][0]["weights"]

    def test_report_includes_hostprof_section(self, tmp_path, capsys):
        report = tmp_path / "dash.html"
        prof = tmp_path / "flame.json"
        assert cli.main(["fig12", "--quick", "--report", str(report),
                         "--hostprof", str(prof)]) == 0
        assert "host profile" in report.read_text()


class TestTelemetryCli:
    def _profile(self, tmp_path):
        profiler = HostProfiler(clock=_stub_clock())
        _drive(profiler)
        path = tmp_path / "profile.json"
        write_speedscope(profiler, str(path))
        return path

    def test_flame_renders_valid_profile(self, tmp_path, capsys):
        path = self._profile(tmp_path)
        assert telemetry_main(["flame", str(path), "--top", "2"]) == 0
        assert "hostprof:" in capsys.readouterr().out

    def test_flame_rejects_missing_and_invalid(self, tmp_path, capsys):
        assert telemetry_main(["flame", str(tmp_path / "nope.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"$schema": "wrong"}))
        assert telemetry_main(["flame", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "$schema" in err

    def test_flame_ascii_flag(self, tmp_path, capsys):
        path = self._profile(tmp_path)
        assert telemetry_main(["flame", str(path), "--ascii"]) == 0
        capsys.readouterr().out.encode("ascii")

    def test_compare_json_payload_and_exit_codes(self, tmp_path, capsys):
        base = BenchReport(
            provenance={"git_sha": "aaa", "host": host_environment()},
            metrics={"m": BenchMetric(value=10.0, better="lower")})
        good = BenchReport(
            provenance={"git_sha": "bbb", "host": host_environment()},
            metrics={"m": BenchMetric(value=10.0, better="lower")})
        bad = BenchReport(
            provenance={"git_sha": "ccc", "host": host_environment()},
            metrics={"m": BenchMetric(value=20.0, better="lower")})
        paths = {}
        for tag, report in (("base", base), ("good", good),
                            ("bad", bad)):
            paths[tag] = tmp_path / bench_filename(tag)
            write_bench(report, paths[tag])
        assert telemetry_main(["compare", str(paths["base"]),
                               str(paths["good"]), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.bench-compare/1"
        assert payload["regressions"] == 0
        assert payload["deltas"][0]["verdict"] == "unchanged"
        assert telemetry_main(["compare", str(paths["base"]),
                               str(paths["bad"]), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 1

    def test_compare_warns_on_cross_host_host_metrics(self, tmp_path,
                                                      capsys):
        this_host = host_environment()
        other_host = dict(this_host, machine="riscv128", cpu_count=999)
        base = BenchReport(
            provenance={"git_sha": "aaa", "host": other_host},
            metrics={"host_ns.total": BenchMetric(value=5.0,
                                                  better="neutral")})
        cand = BenchReport(
            provenance={"git_sha": "bbb", "host": this_host},
            metrics={"host_ns.total": BenchMetric(value=9.0,
                                                  better="neutral")})
        base_path = tmp_path / "base.json"
        cand_path = tmp_path / "cand.json"
        write_bench(base, base_path)
        write_bench(cand, cand_path)
        # Neutral metrics never regress; host mismatch only warns.
        assert telemetry_main(["compare", str(base_path),
                               str(cand_path)]) == 0
        assert "advisory" in capsys.readouterr().err
        assert telemetry_main(["compare", str(base_path),
                               str(cand_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"]

    def test_host_conflict_helpers(self):
        same = BenchReport(provenance={"host": {"machine": "x"}},
                           metrics={})
        other = BenchReport(provenance={"host": {"machine": "y"}},
                            metrics={})
        hostless = BenchReport(provenance={}, metrics={})
        assert host_conflicts(same, other) == [
            "host machine: baseline 'x' vs candidate 'y'"]
        assert host_conflicts(same, same) == []
        assert host_conflicts(same, hostless) == []
        assert not has_host_metrics(same, other)
        with_host = BenchReport(
            provenance={},
            metrics={"host_ns.total": BenchMetric(value=1.0,
                                                  better="neutral")})
        assert has_host_metrics(same, with_host)
