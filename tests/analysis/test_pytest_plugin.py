"""The analysis plugin's markers, run in inner pytest sessions."""

import os
import pathlib
import textwrap

import pytest

import repro

#: The inner session's conftest: the plugin under test, as the
#: repository root registers it.
CONFTEST = 'pytest_plugins = ("repro.analysis.pytest_plugin",)\n'

#: A marked test body that drives a simulator and prints a marker line.
PRINTING_TESTS = textwrap.dedent('''
    import pytest

    from repro.sim import Simulator


    def body():
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)

        sim.process(worker())
        sim.run()
        print("printed-by-the-marked-body")


    @pytest.mark.determinism
    def test_determinism_marked():
        body()


    @pytest.mark.tiebreak_shuffle(runs=2)
    def test_shuffle_marked():
        body()
''')


@pytest.fixture
def inner(pytester, monkeypatch):
    """A pytester whose subprocess sessions import this ``repro``."""
    source = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]))
    pytester.makeconftest(CONFTEST)
    return pytester


def test_marked_reruns_print_nothing_to_the_terminal(inner):
    inner.makepyfile(PRINTING_TESTS)
    result = inner.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=2)
    assert "printed-by-the-marked-body" not in result.stdout.str()
    assert "printed-by-the-marked-body" not in result.stderr.str()


def test_nondeterministic_marked_test_still_fails(inner):
    inner.makepyfile(textwrap.dedent('''
        import itertools

        import pytest

        from repro.sim import Simulator

        DELAYS = itertools.count(1)


        @pytest.mark.determinism
        def test_drifts():
            sim = Simulator()

            def worker():
                yield sim.timeout(float(next(DELAYS)))

            sim.process(worker())
            sim.run()
    '''))
    result = inner.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*DeterminismError*nondeterministic*"])
