"""Golden-file regression tests for the experiment renders.

Every artifact ``repro run`` prints — the tables, Figures 2–5, the
claims and the phases report — at the reduced engine test scale is
compared byte-for-byte against a file committed under
``tests/experiments/golden/``.  Generator, engine and cost-model
refactors therefore cannot silently change what an experiment prints.

When a change is intentional, regenerate the files with::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden_renders.py --update-goldens

and commit the diff.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import (
    build_figure4,
    build_table1,
    build_table2,
    render_figure4,
    render_table1,
    render_table2,
)
from repro.experiments.engine import run_sweep
from repro.experiments.figure5 import _figure5_text
from repro.experiments.sweep import DEFAULT_DELAYS
from repro.experiments.targets import TARGETS
from tests.conftest import ENGINE_TEST_SCALE

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _check_golden(name: str, text: str, update: bool) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    rendered = text + "\n"
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        return
    assert path.exists(), (
        f"missing golden file {path}; generate it with --update-goldens"
    )
    assert rendered == path.read_text(), (
        f"{name} render drifted from {path}; if the change is "
        "intentional, rerun with --update-goldens and commit the diff"
    )


@pytest.mark.parametrize(
    "name,build,render",
    [
        ("table1", build_table1, render_table1),
        ("table2", build_table2, render_table2),
        ("figure4", build_figure4, render_figure4),
    ],
)
def test_render_matches_golden(
    name, build, render, all_small_traces, update_goldens
):
    _check_golden(name, render(build(traces=all_small_traces)), update_goldens)


def test_figure5_matches_golden(all_small_traces, update_goldens):
    """The figure5 target's whole text: the speedup table plus the four
    bail-out lines, i.e. every Dynamo cost-model cell it prints."""
    _check_golden(
        "figure5",
        _figure5_text(all_small_traces, ENGINE_TEST_SCALE),
        update_goldens,
    )


@pytest.fixture(scope="module")
def sweep_points(all_small_traces):
    """The benchmark × scheme × τ grid the sweep targets render."""
    return run_sweep(all_small_traces)


@pytest.mark.parametrize("name", ["figure2", "figure3", "claims"])
def test_sweep_render_matches_golden(name, sweep_points, update_goldens):
    text = TARGETS[name].render_points(sweep_points, DEFAULT_DELAYS)
    _check_golden(name, text, update_goldens)


def test_phases_matches_golden(update_goldens):
    """The phases target renders from its own phased trace."""
    text = TARGETS["phases"].build({}, ENGINE_TEST_SCALE)
    _check_golden("phases", text, update_goldens)
