"""Golden-file regression tests for the experiment tables.

Each test runs one paper experiment in a small, fixed-seed "quick"
configuration and compares its rendered table *character for character*
against a snapshot under ``tests/golden/``.  Every production path is
bit-identical to its oracle, so a golden diff means the simulated
physics, a scheduling decision, or the table formatting actually changed,
never mere float drift.

To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_tables.py

and review the diff like any other code change.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.arena import run_regret_bench
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.multiapp_exp import run_multiapp

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN", "") not in ("", "0")


def _check(name: str, rendered: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    text = rendered + "\n"
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        return
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing — regenerate with REPRO_UPDATE_GOLDEN=1"
        )
    expected = path.read_text()
    assert text == expected, (
        f"{name} table drifted from its golden snapshot; if the change is "
        f"intended, regenerate with REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


def test_fig5_quick_table_matches_golden():
    result = run_fig5(
        sizes=(1000, 1400), iterations=10, repeats=2,
        seed=1996, warmup_s=300.0, gap_s=200.0,
    )
    _check("fig5_quick", result.table().render())


def test_fig6_quick_table_matches_golden():
    result = run_fig6(sizes=(3000, 4200), iterations=10, seed=1996, warmup_s=300.0)
    _check("fig6_quick", result.table().render())


def test_arena_quick_table_matches_golden():
    _, _, result = run_regret_bench(
        classes=("sdsc8",), per_class=2, seed=1996, sizes=(400,), iterations=10,
    )
    # The seconds column is wall-clock, so the golden pins the table shape
    # with masked placeholders; the values themselves are bench output.
    _check("arena_quick", result.table(mask_seconds=True))
    assert result.seconds, "timed run should have recorded per-policy seconds"
    unmasked = result.table()
    assert unmasked.splitlines()[1].endswith("seconds")
    assert "-" not in {
        line.split()[-1] for line in unmasked.splitlines()[3:8]
    }, "unmasked table should carry real per-policy seconds"


def test_arena_contended_quick_table_matches_golden():
    _, _, result = run_regret_bench(
        classes=("contended14",), per_class=2, seed=1996, sizes=(400,),
        iterations=10,
    )
    _check("arena_contended_quick", result.table(mask_seconds=True))


def test_multiapp_quick_table_matches_golden():
    result = run_multiapp(
        n=1000, iterations_a=600, iterations_b=100, seed=1996, t_a=300.0,
    )
    _check("multiapp_quick", result.table().render())
