"""Every SIM rule fires on its fixture and stays quiet on clean code."""

import pathlib

import pytest

from repro.analysis import __main__ as analysis_main
from repro.analysis.lint import lint_file, lint_paths, lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def codes_in(path):
    return [v.code for v in lint_file(path)]


def test_sim001_wallclock_and_ambient_random():
    codes = codes_in(FIXTURES / "bad_sim001_wallclock.py")
    assert codes.count("SIM001") == 2
    assert set(codes) == {"SIM001"}


def test_sim001_messages_name_the_offender():
    violations = lint_file(FIXTURES / "bad_sim001_wallclock.py")
    messages = " ".join(v.message for v in violations)
    assert "time" in messages
    assert "random" in messages


def test_sim002_non_event_yields():
    violations = lint_file(FIXTURES / "bad_sim002_yield.py")
    assert [v.code for v in violations] == ["SIM002"] * 4
    # one violation per offending yield: int, str, tuple, bare
    assert len({v.line for v in violations}) == 4


def test_sim002_ignores_data_generators():
    source = (
        "def rows(n):\n"
        "    for i in range(n):\n"
        "        yield i, i * 2\n"
    )
    assert lint_source(source) == []


def test_sim002_fork_join_marks_a_process_body():
    source = (
        "def fan_out(sim, bodies):\n"
        "    results = yield sim.fork_join(bodies)\n"
        "    yield len(results) * 2\n"
    )
    assert [v.code for v in lint_source(source)] == ["SIM002"]


def test_sim005_hold_claim_is_an_acquisition():
    # A stale read-modify-write across a yield is flagged, unless the
    # function holds a Resource slot, plain or as a fixed-length hold.
    source = (
        "class Device:\n"
        "    def body(self, bus, duration):\n"
        "        level = self.level\n"
        "        grant = bus.request({claim})\n"
        "        yield grant\n"
        "        self.level = level + 1\n"
        "        bus.release(grant)\n"
    )
    assert lint_source(source.format(claim="")) == []
    assert lint_source(source.format(claim="hold=duration")) == []
    unguarded = source.replace("bus.request({claim})", "self.sim.timeout(1)")
    assert [v.code for v in lint_source(unguarded)] == ["SIM005"]


def test_sim003_negative_and_non_numeric_latencies():
    violations = lint_file(FIXTURES / "bad_sim003_latency.py")
    assert [v.code for v in violations] == ["SIM003"] * 3


def test_sim004_mutable_defaults():
    violations = lint_file(FIXTURES / "bad_sim004_defaults.py")
    assert [v.code for v in violations] == ["SIM004"] * 3


def test_sim005_stale_read_across_yield_and_global():
    violations = lint_file(FIXTURES / "bad_sim005_race.py")
    codes = [v.code for v in violations]
    assert codes == ["SIM005"] * 2


def test_sim005_quiet_when_resource_held():
    source = (
        "def body(self):\n"
        "    grant = self.lock.request()\n"
        "    yield grant\n"
        "    snapshot = self.count\n"
        "    yield self.sim.timeout(1.0)\n"
        "    self.count = snapshot + 1\n"
    )
    assert lint_source(source) == []


def test_sim005_interprocedural_snapshot_and_writeback():
    violations = lint_file(FIXTURES / "bad_sim005_interproc.py")
    assert [v.code for v in violations] == ["SIM005"]
    assert "self._store()" in violations[0].message


def test_sim005_quiet_when_helper_acquires():
    source = (
        "class Device:\n"
        "    def _claim(self):\n"
        "        return self.lock.request()\n"
        "    def body(self):\n"
        "        grant = self._claim()\n"
        "        yield grant\n"
        "        snapshot = self.count\n"
        "        yield self.sim.timeout(1.0)\n"
        "        self.count = snapshot + 1\n"
    )
    assert lint_source(source) == []


def test_sim006_unguarded_write_family():
    violations = lint_file(FIXTURES / "bad_sim006_unguarded.py")
    assert [v.code for v in violations] == ["SIM006"]
    message = violations[0].message
    assert "writer_a" in message and "writer_b" in message
    assert "self.state" in message
    # augmented assignments (self.ticks += 1) never form a family
    assert "ticks" not in message


def test_sim006_quiet_when_any_writer_acquires():
    source = (
        "class Device:\n"
        "    def writer_a(self):\n"
        "        req = self.lock.request()\n"
        "        yield req\n"
        "        self.state = 1\n"
        "    def writer_b(self):\n"
        "        yield self.sim.timeout(5.0)\n"
        "        self.state = 2\n"
    )
    assert lint_source(source) == []


def test_sim006_quiet_for_yield_from_subgenerators():
    # Sub-generators driven by one process body are not concurrent.
    source = (
        "class Device:\n"
        "    def run(self):\n"
        "        yield from self.phase_a()\n"
        "        yield from self.phase_b()\n"
        "    def phase_a(self):\n"
        "        yield self.sim.timeout(1.0)\n"
        "        self.state = 1\n"
        "    def phase_b(self):\n"
        "        yield self.sim.timeout(1.0)\n"
        "        self.state = 2\n"
    )
    assert lint_source(source) == []


def test_sim007_same_instant_fanout():
    violations = lint_file(FIXTURES / "bad_sim007_fanout.py")
    assert [v.code for v in violations] == ["SIM007", "SIM007"]
    assert "self.last_worker" in violations[0].message


def test_sim007_quiet_when_loop_yields_between_spawns():
    source = (
        "class Pool:\n"
        "    def worker(self, i):\n"
        "        yield self.sim.timeout(1.0)\n"
        "        self.last = i\n"
        "    def boss(self):\n"
        "        for i in range(4):\n"
        "            self.sim.process(self.worker(i))\n"
        "            yield self.sim.timeout(1.0)\n"
    )
    assert lint_source(source) == []


def test_sim008_spawn_only_waited_on():
    violations = lint_file(FIXTURES / "bad_sim008_spawn_wait.py")
    # a yielded spawn, all_of over a comprehension, all_of over a local
    # bound to one; the fourth spawn carries a noqa
    assert [v.code for v in violations] == ["SIM008"] * 3
    assert "yield from" in violations[0].message
    assert "fork_join" in violations[1].message


def test_sim008_quiet_for_yield_from_fork_join_and_kept_spawns():
    source = (
        "def relay(sim, link, sizes):\n"
        "    yield from link.transfer(sizes[0])\n"
        "    yield sim.fork_join([link.transfer(s) for s in sizes])\n"
        "    sim.process(link.transfer(1))\n"
        "    pending = [sim.process(link.transfer(s)) for s in sizes]\n"
        "    pending[0].interrupt()\n"
        "    yield sim.all_of(pending)\n"
    )
    assert lint_source(source) == []


def test_clean_fixture_is_clean():
    assert codes_in(FIXTURES / "clean_process.py") == []


def test_noqa_suppresses_a_single_rule():
    assert lint_source("import time  # noqa: SIM001\n") == []
    assert lint_source("import time  # noqa\n") == []
    # an unrelated code does not suppress
    assert [v.code for v in lint_source("import time  # noqa: SIM004\n")] == [
        "SIM001"]


def test_syntax_errors_reported_not_raised():
    violations = lint_source("def broken(:\n")
    assert [v.code for v in violations] == ["SIM000"]


def test_lint_paths_walks_directories():
    violations = lint_paths([FIXTURES])
    assert {v.code for v in violations} == {
        "SIM001", "SIM002", "SIM003", "SIM004", "SIM005",
        "SIM006", "SIM007", "SIM008"}


def test_repo_source_tree_is_self_clean():
    src = pathlib.Path(__file__).parents[2] / "src" / "repro"
    assert lint_paths([src]) == []


@pytest.mark.parametrize("target,expected", [
    ("fixtures", 1),
    ("src", 0),
])
def test_cli_exit_codes(target, expected, capsys):
    if target == "fixtures":
        path = str(FIXTURES)
    else:
        path = str(pathlib.Path(__file__).parents[2] / "src" / "repro")
    assert analysis_main.main([path]) == expected
    out = capsys.readouterr().out
    assert "violation(s)" in out


def test_cli_github_format_emits_workflow_annotations(capsys):
    path = str(FIXTURES / "bad_sim006_unguarded.py")
    assert analysis_main.main([path, "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert f"::error file={path},line=10,title=SIM006::" in out
    assert out.strip().endswith("1 violation(s)")


@pytest.mark.parametrize("argv", [
    ["--format", "json"], ["--format", "sarif"],
    ["--shuffle", "fig12", "--attest", "BENCH.json"],
])
def test_cli_removed_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        analysis_main.main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_shuffle_rejects_unknown_experiment(capsys):
    assert analysis_main.main(["--shuffle", "not_a_figure"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment(s): not_a_figure" in err


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_cli_shuffle_rejects_non_positive_runs(runs, capsys):
    assert analysis_main.main(["--shuffle", "fig12", "--runs", runs]) == 2
    assert "--runs" in capsys.readouterr().err
