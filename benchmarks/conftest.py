"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts,
prints the rows/series the paper reports, and archives the rendered table
under ``benchmarks/results/`` so the output survives pytest's capture.
When a benchmark also passes structured ``data``, it is archived as JSON
next to the text — machine-readable results for downstream comparison.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report():
    """Print a rendered table and archive it under benchmarks/results/.

    ``report(name, text, data=None)``: ``text`` goes to stdout and
    ``results/<name>.txt``; ``data`` (any JSON-serialisable object) goes
    to ``results/<name>.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str, data=None) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            (RESULTS_DIR / f"{name}.json").write_text(
                json.dumps(data, indent=2, sort_keys=True) + "\n"
            )

    return _report


def merge_json_results(name: str, updates: dict) -> dict:
    """Merge ``updates`` into ``results/<name>.json`` by top-level key.

    Several benchmarks contribute sections to one archive (e.g.
    ``perf_suite.json`` holds the service, daemon, ensemble, arena and
    reservation sections); a wholesale overwrite by one would drop the
    others' keys.  Unreadable or non-object existing content is replaced.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    existing: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except ValueError:
            loaded = None
        if isinstance(loaded, dict):
            existing = loaded
    existing.update(updates)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return existing


@pytest.fixture(scope="session")
def merge_json():
    """Session fixture wrapping :func:`merge_json_results`."""
    return merge_json_results
