"""The §6.1 flush path, pinned where it fires.

At the engine test scale and at flow 0.1 the prediction-rate monitor
never fires, so the golden phases text cannot see the flush branch of
``DynamoSystem.run_detailed``.  Three inputs do, and their outputs are
pinned here byte for byte: the phases report at flow 0.3 (three phase
flushes), the eviction study at a 2,000-instruction budget (capacity
flushes and FIFO evictions), and ``examples/dynamo_demo.py`` (measured
fragment sizes under both schemes).

``flushes`` counts the flushes a run made, once each, so every run on
these inputs charges ``flush_penalty`` per flush.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import runpy
from types import SimpleNamespace

import pytest

from repro.dynamo.system import DynamoSystem
from repro.experiments.extended import EvictionRow, eviction_rows
from repro.experiments.phases import (
    phases_config,
    render_phase_report,
    run_phase_experiment,
)

DEMO = pathlib.Path(__file__).parents[2] / "examples" / "dynamo_demo.py"

PHASES_SHA256 = (
    "4a91a8658029e6e4ee60d4bb60bb004094f0f1c5be67e5b1476cdb6c6e54d186"
)
DEMO_SHA256 = (
    "fca37e5e809981ff79a80b0411c9411fc2b216642cdbca91c7e634a17853f250"
)


def _recording(method, runs):
    """``method``, appending each run it returns to ``runs`` with the
    configuration it ran under."""

    def recording(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        runs.append((self.config, result))
        return result

    return recording


@pytest.fixture(scope="module")
def pinned():
    """Run the pinned inputs once, recording every run either Dynamo
    model returns."""
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("run", "run_detailed"):
            method = getattr(DynamoSystem, name)
            patch.setattr(DynamoSystem, name, _recording(method, runs))
        report = run_phase_experiment(phases_config(0.3))
        rows = eviction_rows(flow_scale=0.1, budget=2_000)
        rows_at_02 = eviction_rows(flow_scale=0.2)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(DEMO), run_name="__main__")
    return SimpleNamespace(
        report=report,
        rows=rows,
        rows_at_02=rows_at_02,
        demo=stdout.getvalue(),
        runs=runs,
    )


def test_phases_report_at_flow_03_is_pinned(pinned):
    text = render_phase_report(pinned.report)
    assert hashlib.sha256(text.encode()).hexdigest() == PHASES_SHA256
    assert pinned.report.detected_flushes == [31200, 61200, 91200]


def test_phase_flushes_count_once(pinned):
    assert pinned.report.run_with_flush.flushes == 3
    assert pinned.report.run_no_flush.flushes == 0


def test_eviction_rows_are_pinned(pinned):
    assert pinned.rows == [
        EvictionRow("flush", -40.842398416118876, 2, 0),
        EvictionRow("fifo", None, 0, 120),
    ]


def test_eviction_flush_row_counts_the_flushes_made(pinned):
    """No monitor is given, so only capacity flushes happen and count."""
    flush, fifo = pinned.rows_at_02
    assert flush.flushes == 1
    assert fifo.evictions == 8


def test_dynamo_demo_stdout_is_pinned(pinned):
    digest = hashlib.sha256(pinned.demo.encode()).hexdigest()
    assert digest == DEMO_SHA256


def test_each_flush_is_charged_once(pinned):
    # Two phases runs, two eviction runs, two detailed and six
    # vectorized demo runs.
    assert len(pinned.runs) == 12
    for config, run in pinned.runs:
        assert run.breakdown.flushes == run.flushes * config.flush_penalty
