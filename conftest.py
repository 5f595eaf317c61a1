"""Repository-root pytest configuration.

Registers the analysis plugin: the ``@pytest.mark.determinism`` marker
(run twice, diff kernel event traces), the ``@pytest.mark.tiebreak_shuffle``
marker (re-run under seeded same-timestamp shuffles) and the
``race_sanitizer`` fixture (fail on same-timestamp races), and
pytest's own ``pytester`` fixture, which the plugin's tests run inner
sessions with.
"""

pytest_plugins = ("repro.analysis.pytest_plugin", "pytester")
