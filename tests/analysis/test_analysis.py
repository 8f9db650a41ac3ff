"""Offline analyses: the edge-vs-path showdown."""

import numpy as np
import pytest

from repro.analysis import (
    edge_profile_of,
    edge_vs_path_showdown,
    estimate_path_freqs,
)
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from tests.conftest import make_path


def _trace():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1, 3))
    b = make_path(table, 0, "0", (0, 2, 3))
    c = make_path(table, 40, "1", (10, 11))
    ids = [a] * 600 + [b] * 300 + [c] * 100
    return PathTrace(table, np.array(ids), name="tri"), (a, b, c)


def test_edge_profile_weights():
    trace, (a, b, c) = _trace()
    edges = edge_profile_of(trace)
    assert edges[(0, 1)] == 600
    assert edges[(0, 2)] == 300
    assert edges[(1, 3)] == 600
    assert edges[(10, 11)] == 100


def test_edge_estimates_bound_true_freqs():
    trace, _ = _trace()
    edges = edge_profile_of(trace)
    estimates = estimate_path_freqs(trace, edges)
    assert (estimates >= trace.freqs()).all()


def test_showdown_recovers_uncorrelated_paths():
    trace, _ = _trace()
    result = edge_vs_path_showdown(trace, fraction=0.05)
    # No interleaved correlation here: edges recover everything.
    assert result.recovery_percent == 100.0
    assert result.hot_flow_coverage_percent == pytest.approx(100.0)


def test_showdown_detects_correlation_loss():
    """Interleaved paths through shared blocks inflate edge bounds."""
    table = PathTable()
    # Paths share blocks 0 and 3 but use correlated middles:
    # x = 0->1->3->4, y = 0->2->3->5.  Edge profile cannot tell x from
    # the phantom 0->1->3->5.
    x = make_path(table, 0, "11", (0, 1, 3, 4))
    y = make_path(table, 0, "00", (0, 2, 3, 5))
    phantom = make_path(table, 0, "10", (0, 1, 3, 5))
    ids = [x] * 500 + [y] * 480 + [phantom] * 20
    trace = PathTrace(table, np.array(ids), name="correlated")
    result = edge_vs_path_showdown(trace, fraction=0.005)
    # The phantom path's edge bound is ~500 despite a true freq of 20.
    edges = edge_profile_of(trace)
    estimates = estimate_path_freqs(trace, edges)
    assert estimates[phantom] >= 480
    assert result.mean_overestimate > 0


def test_showdown_on_benchmark(small_deltablue):
    result = edge_vs_path_showdown(small_deltablue)
    assert 0 <= result.recovery_percent <= 100
