"""Repository-root pytest configuration.

Registers the analysis plugin: the ``@pytest.mark.determinism`` marker
(run twice, diff kernel event traces), the ``@pytest.mark.tiebreak_shuffle``
marker (re-run under seeded same-timestamp shuffles) and the
``race_sanitizer`` fixture (fail on same-timestamp races).
"""

pytest_plugins = ("repro.analysis.pytest_plugin",)
