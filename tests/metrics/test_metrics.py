"""Hot sets and the hit/noise/MOC metrics."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.metrics import (
    counter_space,
    evaluate_prediction,
    hot_path_set,
    hot_path_set_absolute,
)
from repro.prediction import NETPredictor, PathProfilePredictor
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from tests.conftest import make_path


def _two_tier_trace():
    """Two hot paths (45%/45%) and ten cold ones (1% each)."""
    table = PathTable()
    hot_a = make_path(table, 0, "1", (0, 1))
    hot_b = make_path(table, 40, "0", (10, 11))
    cold = [
        make_path(table, 400 + 40 * i, format(i, "04b"), (100 + i, 200 + i))
        for i in range(10)
    ]
    ids = [hot_a] * 4500 + [hot_b] * 4500
    for pid in cold:
        ids += [pid] * 100
    rng = np.random.default_rng(0)
    ids = np.array(ids)
    rng.shuffle(ids)
    return PathTrace(table, ids), {hot_a, hot_b}, set(cold)


def test_hot_set_strict_threshold():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [a] * 999 + [b])
    hot = hot_path_set_absolute(trace, 1.0)
    assert hot.is_hot(a) and not hot.is_hot(b)
    # freq == threshold is NOT hot (strict >), as in the paper.
    boundary = hot_path_set_absolute(trace, 999)
    assert not boundary.is_hot(a)


def test_hot_fraction_of_flow():
    trace, hot_ids, cold_ids = _two_tier_trace()
    hot = hot_path_set(trace, fraction=0.001)
    assert set(map(int, hot.hot_ids())) == hot_ids | cold_ids  # 1% > 0.1%
    tight = hot_path_set(trace, fraction=0.02)
    assert set(map(int, tight.hot_ids())) == hot_ids


def test_hot_fraction_validation():
    trace, _, _ = _two_tier_trace()
    with pytest.raises(ReproError):
        hot_path_set(trace, fraction=1.5)
    with pytest.raises(ReproError):
        hot_path_set_absolute(trace, -1)


def test_quality_flow_conservation():
    """Hits + Noise + Profiled == total flow, for every scheme and τ."""
    trace, _, _ = _two_tier_trace()
    hot = hot_path_set(trace, fraction=0.02)
    for predictor in (
        PathProfilePredictor(7),
        PathProfilePredictor(500),
        NETPredictor(7),
        NETPredictor(500),
    ):
        quality = evaluate_prediction(trace, hot, predictor.run(trace))
        assert (
            quality.hits_flow + quality.noise_flow + quality.profiled_flow
            == trace.flow
        )
        assert 0 <= quality.hit_rate <= 100
        assert 0 <= quality.noise_rate <= 100 + 1e-9


def test_hit_rate_decreases_with_delay_path_profile():
    trace, _, _ = _two_tier_trace()
    hot = hot_path_set(trace, fraction=0.02)
    rates = []
    for tau in (0, 10, 100, 1000, 4000):
        quality = evaluate_prediction(
            trace, hot, PathProfilePredictor(tau).run(trace)
        )
        rates.append(quality.hit_rate)
    assert rates == sorted(rates, reverse=True)


def test_noise_rate_decreases_with_delay():
    trace, _, _ = _two_tier_trace()
    hot = hot_path_set(trace, fraction=0.02)
    noise = []
    for tau in (0, 50, 99):
        quality = evaluate_prediction(
            trace, hot, PathProfilePredictor(tau).run(trace)
        )
        noise.append(quality.noise_rate)
    assert noise[0] == pytest.approx(100.0)  # all cold flow captured
    assert noise == sorted(noise, reverse=True)


def test_moc_formula_and_actual():
    trace, hot_ids, _ = _two_tier_trace()
    hot = hot_path_set(trace, fraction=0.02)
    tau = 100
    quality = evaluate_prediction(
        trace, hot, PathProfilePredictor(tau).run(trace)
    )
    assert quality.moc_formula == len(hot_ids) * tau
    # For path-profile prediction the two MOC views coincide exactly.
    assert quality.moc_actual == quality.moc_formula


def test_noise_normalizations():
    trace, _, _ = _two_tier_trace()
    hot = hot_path_set(trace, fraction=0.02)
    quality = evaluate_prediction(
        trace, hot, PathProfilePredictor(0).run(trace)
    )
    assert quality.noise_rate == pytest.approx(100.0)
    # The literal §3 formula, Noise(P) / freq(HotPath_h) × 100, which the
    # figures do not use: at τ = 0 it is the cold flow over the hot flow.
    literal = 100.0 * quality.noise_flow / quality.hot_flow
    expected = 100.0 * quality.cold_flow / quality.hot_flow
    assert literal == pytest.approx(expected)


def test_counter_space_measures():
    trace, _, _ = _two_tier_trace()
    space = counter_space(trace)
    assert space.num_paths == 12
    assert space.num_heads == 12  # every path has its own head here
    assert space.net_over_path_profile == pytest.approx(1.0)


def test_render_helpers():
    trace, _, _ = _two_tier_trace()
    hot = hot_path_set(trace, fraction=0.02)
    quality = evaluate_prediction(
        trace, hot, NETPredictor(10).run(trace)
    )
    assert "net" in quality.render()
    assert "ratio" in counter_space(trace).render()
