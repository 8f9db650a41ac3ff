"""Windowed metrics and retirement policies (the paper's §6.1 future work)."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.metrics import (
    FlushOnSpike,
    NeverRetire,
    RetireIdle,
    evaluate_windowed,
)
from repro.prediction import NETPredictor, PathProfilePredictor
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from repro.workloads.phased import load_phased
from tests.conftest import make_path


@pytest.fixture(scope="module")
def phased_trace():
    return load_phased(num_phases=3, flow=90_000, seed=11).trace()


@pytest.fixture(scope="module")
def phased_outcome(phased_trace):
    return NETPredictor(50).run(phased_trace)


def test_window_must_be_positive(phased_trace, phased_outcome):
    with pytest.raises(ReproError):
        evaluate_windowed(phased_trace, phased_outcome, window=0)


def test_policy_validation():
    with pytest.raises(ReproError):
        RetireIdle(patience=0)
    with pytest.raises(ReproError):
        FlushOnSpike(spike_factor=1.0)


def test_never_retire_keeps_everything(phased_trace, phased_outcome):
    quality = evaluate_windowed(
        phased_trace, phased_outcome, NeverRetire(), window=10_000
    )
    assert quality.retired_total == 0
    assert quality.resident_per_window == sorted(
        quality.resident_per_window
    )  # the resident set only grows
    assert quality.windowed_hit_rate > 90


def test_idle_retirement_shrinks_resident_set(phased_trace, phased_outcome):
    keep = evaluate_windowed(
        phased_trace, phased_outcome, NeverRetire(), window=10_000
    )
    idle = evaluate_windowed(
        phased_trace, phased_outcome, RetireIdle(patience=2), window=10_000
    )
    assert idle.mean_resident < keep.mean_resident
    assert idle.retired_total > 0


def test_flush_policy_records_flush_windows(phased_trace, phased_outcome):
    # The window must be small enough relative to a phase (30k) for the
    # quiet steady-state rate to establish a baseline.
    policy = FlushOnSpike()
    quality = evaluate_windowed(
        phased_trace, phased_outcome, policy, window=3_000
    )
    # The two later phase transitions (windows 10 and 20) flush.
    assert policy.flush_windows == [10, 20]
    assert quality.retired_total > 0


def test_stationary_trace_has_no_phase_noise():
    table = PathTable()
    hot = make_path(table, 0, "1", (0, 1))
    trace = PathTrace(table, np.full(50_000, hot))
    outcome = PathProfilePredictor(10).run(trace)
    quality = evaluate_windowed(trace, outcome, window=5_000)
    assert quality.phase_noise_rate == 0.0
    assert quality.windowed_hit_rate > 99.0


def test_retired_hot_paths_counted_as_mistimed():
    """Retire an alternating path while it is idle; it comes back hot."""
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    # a hot in windows 0 and 2; b hot in window 1.
    ids = [a] * 10_000 + [b] * 10_000 + [a] * 10_000
    trace = PathTrace(table, np.array(ids))
    outcome = PathProfilePredictor(5).run(trace)
    quality = evaluate_windowed(
        trace, outcome, RetireIdle(patience=1), window=10_000
    )
    assert quality.useful_retired >= 1

