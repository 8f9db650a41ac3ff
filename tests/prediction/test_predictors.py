"""Online predictors: semantics, identities, edge cases."""

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction import (
    BoaPredictor,
    FirstExecutionPredictor,
    NETPredictor,
    PathProfilePredictor,
    PredictionOutcome,
)
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from tests.conftest import make_path


def _single_loop_trace(n=1000):
    """One path repeated n times (a single dominant loop)."""
    table = PathTable()
    pid = make_path(table, 0, "1", (0, 1, 2))
    return PathTrace(table, np.full(n, pid), name="mono"), pid


def test_delay_must_be_non_negative():
    with pytest.raises(PredictionError):
        PathProfilePredictor(-1)


def test_path_profile_captured_equals_freq_minus_tau():
    trace, pid = _single_loop_trace(1000)
    outcome = PathProfilePredictor(50).run(trace)
    assert list(outcome.predicted_ids) == [pid]
    assert list(outcome.captured) == [950]
    assert list(outcome.prediction_times) == [50]


def test_path_profile_skips_paths_at_or_below_tau():
    table = PathTable()
    hot = make_path(table, 0, "1", (0, 1))
    cold = make_path(table, 40, "0", (10, 11))
    ids = [hot] * 100 + [cold] * 10
    trace = PathTrace(table, ids)
    outcome = PathProfilePredictor(10).run(trace)
    predicted = set(outcome.predicted_ids.tolist())
    assert cold not in predicted  # freq == tau is not > tau
    assert hot in predicted


def test_path_profile_delay_zero_predicts_everything():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [a, b, a])
    outcome = PathProfilePredictor(0).run(trace)
    assert set(outcome.predicted_ids.tolist()) == {a, b}
    assert outcome.captured_flow == trace.flow


def test_first_execution_is_delay_zero():
    trace, _ = _single_loop_trace(50)
    first = FirstExecutionPredictor().run(trace)
    zero = PathProfilePredictor(0).run(trace)
    assert list(first.predicted_ids) == list(zero.predicted_ids)
    assert list(first.captured) == list(zero.captured)
    assert first.scheme == "first-execution"


def test_net_single_loop_matches_path_profile_up_to_arrival():
    # The first occurrence does not arrive via a backward branch, so the
    # NET head counter sees one fewer event than the path counter.
    trace, pid = _single_loop_trace(1000)
    net = NETPredictor(50).run(trace)
    assert list(net.predicted_ids) == [pid]
    assert list(net.captured) == [1000 - 51]
    assert net.counter_space == 1


def test_net_counts_all_starts_option():
    trace, pid = _single_loop_trace(1000)
    net = NETPredictor(50, count_backward_arrivals_only=False).run(trace)
    assert list(net.captured) == [950]


def test_net_region_model_captures_sibling_tails():
    """Once a head is hot every tail executing from it is captured."""
    table = PathTable()
    a = make_path(table, 0, "01", (0, 1, 3))
    b = make_path(table, 0, "11", (0, 2, 3))
    ids = [a] * 100 + [b] * 100
    trace = PathTrace(table, ids)
    outcome = NETPredictor(10).run(trace)
    assert set(outcome.predicted_ids.tolist()) == {a, b}
    captured = dict(zip(outcome.predicted_ids, outcome.captured))
    assert captured[b] == 100  # b materializes at its first post-hot exec


def test_net_single_shot_predicts_one_tail_per_head():
    table = PathTable()
    a = make_path(table, 0, "01", (0, 1, 3))
    b = make_path(table, 0, "11", (0, 2, 3))
    ids = [a] * 100 + [b] * 100
    trace = PathTrace(table, ids)
    outcome = NETPredictor(10, retire_heads=True).run(trace)
    # Only the next executing tail.
    assert set(outcome.predicted_ids.tolist()) == {a}


def test_net_cold_heads_never_predict():
    table = PathTable()
    hot = make_path(table, 0, "1", (0, 1))
    rare = make_path(table, 40, "0", (10, 11))
    ids = [hot] * 500 + [rare] * 3
    trace = PathTrace(table, ids)
    outcome = NETPredictor(50).run(trace)
    assert rare not in set(outcome.predicted_ids.tolist())
    assert outcome.counter_space == 2  # both heads got counters


def test_net_empty_trace():
    table = PathTable()
    make_path(table, 0, "1", (0, 1))
    trace = PathTrace(table, [])
    outcome = NETPredictor(10).run(trace)
    assert outcome.num_predictions == 0
    assert outcome.captured_flow == 0


def test_outcome_alignment_validated():
    with pytest.raises(PredictionError):
        PredictionOutcome(
            scheme="x",
            delay=1,
            predicted_ids=np.array([1]),
            prediction_times=np.array([1, 2]),
            captured=np.array([1]),
            counter_space=0,
            profiling_ops=0,
        )


def test_boa_predicts_dominant_tail():
    table = PathTable()
    a = make_path(table, 0, "01", (0, 1, 3))
    b = make_path(table, 0, "11", (0, 2, 3))
    ids = [a] * 90 + [b] * 10 + [a] * 100
    trace = PathTrace(table, ids)
    outcome = BoaPredictor(20).run(trace)
    # Edge frequencies favour a's blocks, so Boa constructs a.
    assert a in set(outcome.predicted_ids.tolist())


def test_boa_constructed_path_may_not_exist():
    """Branch-frequency construction can splice paths that never ran."""
    table = PathTable()
    # Path x: 0 -> 1 -> 3 ; path y: 0 -> 2 -> 4.  A constructed hybrid
    # (0 -> 1 -> 4 etc.) does not exist; with balanced frequencies and
    # interleaved ends the construction can go wrong.  We only assert the
    # predictor never crashes and reports misses.
    x = make_path(table, 0, "01", (0, 1, 3))
    y = make_path(table, 0, "11", (0, 2, 4))
    ids = ([x, y] * 50)
    trace = PathTrace(table, ids)
    predictor = BoaPredictor(10)
    outcome = predictor.run(trace)
    assert outcome.num_predictions <= 2
    assert predictor.last_constructed_misses >= 0


def test_boa_counter_space_includes_edges():
    table = PathTable()
    a = make_path(table, 0, "01", (0, 1, 3))
    trace = PathTrace(table, [a] * 40)
    outcome = BoaPredictor(5).run(trace)
    # Two block transitions plus one head counter.
    assert outcome.counter_space == 3


def test_predictors_sort_predictions_by_time():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    ids = [b] * 30 + [a] * 300
    trace = PathTrace(table, ids)
    for predictor in (PathProfilePredictor(10), NETPredictor(10)):
        outcome = predictor.run(trace)
        times = list(outcome.prediction_times)
        assert times == sorted(times)
