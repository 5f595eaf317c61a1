"""Tests for the cell runner (in-process and sharded) and result cache."""

import dataclasses
import json

import pytest

from repro.experiments import parallel, runner
from repro.experiments.cli import main
from repro.systems.base import AcceleratedSystem
from repro.telemetry import SamplingConfig, Telemetry

#: Two workloads x two systems: enough cells for a jobs=4 sharding.
SYSTEMS = ("Hetero", "DRAM-less")


def _canon(obj):
    """Content view of an ExecutionResult tree (cross-process objects
    never compare equal by identity)."""
    if hasattr(obj, "as_dict"):
        return _canon(obj.as_dict())
    if hasattr(obj, "times") and hasattr(obj, "values"):
        return (list(obj.times), list(obj.values))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _canon(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(value) for value in obj]
    if hasattr(obj, "__dict__"):
        return {key: _canon(value) for key, value in vars(obj).items()}
    return obj


class TestParallelEquivalence:
    @pytest.mark.determinism
    def test_matrix_results_metrics_and_spans_match_serial(self):
        # Both sides run inside an enclosing scope: the merge must nest
        # every cell's spans under it, whichever process recorded them.
        def snapshot(jobs):
            telemetry = Telemetry(record_spans=True)
            with telemetry.activate(), telemetry.tracer.scope("fig15"):
                matrix = runner.run_matrix(runner.QUICK, SYSTEMS, jobs=jobs)
            spans = [dataclasses.astuple(span)
                     for span in telemetry.tracer.spans]
            return matrix, telemetry.summary(), spans

        serial_matrix, serial_summary, serial_spans = snapshot(1)
        sharded_matrix, sharded_summary, sharded_spans = snapshot(4)
        assert sharded_summary == serial_summary
        assert sharded_spans == serial_spans
        assert {span[4] for span in serial_spans} == {
            f"fig15/{system}:{workload}" for system in SYSTEMS
            for workload in runner.QUICK.workloads}
        for workload in serial_matrix:
            for system in serial_matrix[workload]:
                assert (_canon(sharded_matrix[workload][system])
                        == _canon(serial_matrix[workload][system]))

    @pytest.mark.determinism
    def test_sampled_timeseries_match_serial_byte_for_byte(self):
        # Windowed samples land in ordinary registry series, so the
        # fragments merge reassembles a sharded run's timeseries —
        # and its sketches — bit-for-bit.
        def document(jobs):
            telemetry = Telemetry(
                record_spans=False,
                timeseries=SamplingConfig(window_ns=500.0))
            with telemetry.activate():
                runner.run_matrix(runner.QUICK, SYSTEMS, jobs=jobs)
            return json.dumps(telemetry.timeseries_document(),
                              sort_keys=True)

        serial = document(1)
        assert document(2) == serial
        assert '"sketches"' in serial

    @pytest.mark.determinism
    def test_cli_results_are_byte_identical(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_GIT_SHA", "0000test")
        monkeypatch.setenv("REPRO_TIMESTAMP", "2026-01-01T00:00:00")
        serial_dir = tmp_path / "serial"
        sharded_dir = tmp_path / "sharded"
        assert main(["tables,fig12", "--quick",
                     "--results", str(serial_dir)]) == 0
        assert main(["tables,fig12", "--quick", "--jobs", "4",
                     "--results", str(sharded_dir)]) == 0
        capsys.readouterr()
        serial_files = sorted(path.name
                              for path in serial_dir.iterdir())
        assert serial_files == ["fig12_interleaving.txt", "table1.txt"]
        for name in serial_files:
            assert ((sharded_dir / name).read_bytes()
                    == (serial_dir / name).read_bytes())


def _matrix_plan(systems=SYSTEMS, workloads=runner.QUICK.workloads):
    return {"": runner.matrix_cells(workloads, systems)}


class TestResultCache:
    def test_second_run_performs_zero_simulations(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = parallel.run_cells(
            _matrix_plan(), runner.QUICK, jobs=1, cache_dir=cache_dir)
        assert first.stats.simulated == len(runner.QUICK.workloads) * len(
            SYSTEMS)
        assert first.stats.cached == 0
        second = parallel.run_cells(
            _matrix_plan(), runner.QUICK, jobs=1, cache_dir=cache_dir)
        assert second.stats.simulated == 0
        assert second.stats.cached == first.stats.simulated
        assert list(second.results) == list(first.results)
        for key in first.results:
            assert (_canon(second.results[key])
                    == _canon(first.results[key]))

    def test_key_depends_on_config(self):
        tree = "t" * 64
        quick = parallel.cell_key("matrix/gemver/Hetero", runner.QUICK,
                                  (False, False, None), tree)
        other = dataclasses.replace(runner.QUICK, seed=2)
        assert parallel.cell_key("matrix/gemver/Hetero", other,
                                 (False, False, None), tree) != quick
        assert parallel.cell_key("matrix/gemver/DRAM-less", runner.QUICK,
                                 (False, False, None), tree) != quick

    def test_key_depends_on_sampling_spec(self):
        # A sampled rerun must never replay a cell cached without
        # sampling (its fragments would carry no windowed series).
        tree = "t" * 64
        plain = parallel.cell_key("matrix/gemver/Hetero", runner.QUICK,
                                  (True, False, None), tree)
        sampled = parallel.cell_key("matrix/gemver/Hetero", runner.QUICK,
                                    (True, False, (500.0, None)), tree)
        rewindowed = parallel.cell_key(
            "matrix/gemver/Hetero", runner.QUICK,
            (True, False, (250.0, None)), tree)
        assert len({plain, sampled, rewindowed}) == 3

    def test_key_depends_on_source_tree(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = parallel.source_tree_digest(tmp_path)
        assert parallel.source_tree_digest(tmp_path) == before  # memoized
        parallel._TREE_DIGESTS.clear()
        (tmp_path / "a.py").write_text("x = 2\n")
        after = parallel.source_tree_digest(tmp_path)
        parallel._TREE_DIGESTS.clear()
        assert after != before

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        cache = parallel.ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_cached_telemetry_replays(self, tmp_path):
        def summary(cache_dir):
            telemetry = Telemetry()
            with telemetry.activate():
                run = parallel.run_cells(
                    _matrix_plan(SYSTEMS[:1], ("gemver",)), runner.QUICK,
                    jobs=1, cache_dir=cache_dir)
            return telemetry.summary(), run.stats
        first_summary, first_stats = summary(tmp_path / "cache")
        second_summary, second_stats = summary(tmp_path / "cache")
        assert first_stats.simulated == 1
        assert second_stats.cached == 1
        assert second_summary == first_summary


#: The experiments that read the system matrix.
MATRIX_FIGURES = ("fig01", "fig07", "fig15", "fig16", "fig17")


def _count_system_runs(monkeypatch):
    """Record every in-process ``AcceleratedSystem.run`` from now on."""
    calls = []
    original = AcceleratedSystem.run

    def counting(self, bundle):
        calls.append((self.name, bundle.spec.name))
        return original(self, bundle)

    monkeypatch.setattr(AcceleratedSystem, "run", counting)
    return calls


class TestSharedCells:
    def test_each_cell_is_simulated_once(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_GIT_SHA", "0000test")
        monkeypatch.setenv("REPRO_TIMESTAMP", "2026-01-01T00:00:00")
        calls = _count_system_runs(monkeypatch)
        assert main([",".join(MATRIX_FIGURES), "--quick",
                     "--results", str(tmp_path / "shared")]) == 0
        # 2 workloads x (11 Table I systems + Ideal-resident), plus
        # fig07's two one-core firmware runs.
        assert len(calls) == 26
        assert len(set(calls)) == 24
        for name in MATRIX_FIGURES:
            assert main([name, "--quick",
                         "--results", str(tmp_path / "alone")]) == 0
        assert main([",".join(MATRIX_FIGURES), "--quick", "--jobs", "2",
                     "--results", str(tmp_path / "sharded")]) == 0
        capsys.readouterr()
        alone = sorted(path.name for path in (tmp_path / "alone").iterdir())
        assert len(alone) == len(MATRIX_FIGURES)
        for tree in ("shared", "sharded"):
            assert sorted(path.name
                          for path in (tmp_path / tree).iterdir()) == alone
            for name in alone:
                assert ((tmp_path / tree / name).read_bytes()
                        == (tmp_path / "alone" / name).read_bytes())

    def test_cached_cells_serve_other_figures(self, tmp_path, monkeypatch,
                                              capsys):
        cache = str(tmp_path / "cache")
        assert main(["fig15", "--quick", "--cache", cache]) == 0
        calls = _count_system_runs(monkeypatch)
        assert main(["fig16", "--quick", "--cache", cache]) == 0
        assert calls == []
        assert "Figure 16" in capsys.readouterr().out

    def test_fig13_attribution_survives_per_cell_request_ids(self, capsys):
        # Request ids restart at every replay cell; each replay's own
        # scope keeps (scope, req) unique, so attribution still holds.
        assert main(["fig13", "--quick", "--profile"]) == 0
        out = capsys.readouterr().out
        profile = out[out.index("profile: fig13"):]
        assert "496 requests, mean latency 7.970 us" in profile
        assert "attribution invariant: holds" in profile


class TestValidation:
    def test_empty_workloads_names_matrix_key(self):
        with pytest.raises(ValueError, match="matrix key 'workloads'"):
            runner.run_matrix(runner.QUICK, SYSTEMS, workloads=())

    def test_empty_systems_names_matrix_key(self):
        with pytest.raises(ValueError, match="matrix key 'systems'"):
            runner.run_matrix(runner.QUICK, ())

    def test_geometric_mean_empty_names_key(self):
        with pytest.raises(ValueError, match="'speedup.gemver'"):
            runner.geometric_mean([], key="speedup.gemver")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            runner.run_matrix(runner.QUICK, SYSTEMS, jobs=0)

    def test_cli_rejects_bad_jobs(self, capsys):
        assert main(["fig12", "--quick", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
