"""Benchmark-suite pytest configuration."""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "src"))


def pytest_sessionstart(session):
    """Own the shared results file: the ``results.txt`` beside this
    conftest (``REPRO_RESULTS`` overrides), truncated at the start of a
    bench run and appended to by every ``render_table``."""
    from repro.bench import reporting
    reporting.RESULTS_PATH = os.environ.get(
        "REPRO_RESULTS",
        os.path.join(os.path.dirname(__file__), "results.txt"))
    try:
        open(reporting.RESULTS_PATH, "w", encoding="utf-8").close()
    except OSError:
        pass
