"""A run imports only what it runs.

The simulator kernel imports the tracer, so the telemetry package loads
with every run; its toolbox (the exporters, the session, the profile,
the gauges, BENCH compare, the host profiler and the dashboard) and the
experiment modules a run does not choose load on first use.  Each check
runs in a fresh interpreter, since this session has imported them all.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: The telemetry modules only an observing or profiling run needs.
TOOLBOX = frozenset(f"repro.telemetry.{name}" for name in (
    "export", "session", "profile", "gauges", "bench", "hostprof",
    "dashboard"))
#: The experiment modules every run goes through.
SHARED = frozenset({"repro.experiments", "repro.experiments.runner",
                    "repro.experiments.parallel", "repro.experiments.cli"})


def _loaded(statement):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    source = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = (f"{statement}\nimport sys\n"
             "print(*sorted(name for name in sys.modules\n"
             "              if name.split('.')[0] == 'repro'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize("statement, module", [
    # What the host benchmark's workloads import for suite-quick.
    ("from repro.experiments.cli import EXPERIMENTS",
     "repro.experiments.cli"),
    ("import repro.experiments.fig13_schedulers",
     "repro.experiments.fig13_schedulers"),
])
def test_an_import_loads_no_toolbox_service_or_other_experiment(
        statement, module):
    loaded = _loaded(statement)
    assert module in loaded
    assert sorted(loaded & TOOLBOX) == []
    assert sorted(name for name in loaded
                  if name.split(".")[:2] == ["repro", "service"]) == []
    assert sorted(name for name in loaded
                  if name.split(".")[:2] == ["repro", "experiments"]
                  and name not in SHARED | {module}) == []
