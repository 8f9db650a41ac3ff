"""NET single-shot ablation (``retire_heads=True``): each head predicts
exactly once — the tail executing at its hot-time."""

import numpy as np

from repro.prediction import NETPredictor
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from tests.conftest import make_path


def test_single_shot_orders_predictions_by_hot_time():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    # Head 10 reaches τ+1 arrivals before head 0 even though head 0
    # comes first in uid (and hot-time dict insertion) order.
    ids = [b, b, b, a, a, a, b, a]
    trace = PathTrace(table, ids)
    outcome = NETPredictor(
        2, count_backward_arrivals_only=False, retire_heads=True
    ).run(trace)
    assert list(outcome.predicted_ids) == [b, a]
    assert list(outcome.prediction_times) == [2, 5]
    # b's occurrences at or after 2: indices 2 and 6; a's at or after
    # 5: indices 5 and 7.
    assert list(outcome.captured) == [2, 2]


def test_single_shot_captured_counts_from_the_cut_index():
    table = PathTable()
    a = make_path(table, 0, "01", (0, 1, 3))
    b = make_path(table, 0, "11", (0, 2, 3))
    ids = [a, b] * 10  # shared head 0; b executes at odd indices
    trace = PathTrace(table, ids)
    outcome = NETPredictor(
        3, count_backward_arrivals_only=False, retire_heads=True
    ).run(trace)
    # The head turns hot at its 4th arrival (index 3); the tail
    # executing there is b, and only that one tail is ever selected.
    assert list(outcome.predicted_ids) == [b]
    assert list(outcome.prediction_times) == [3]
    # Captured = b's executions at or after the cut: 3, 5, …, 19.
    assert list(outcome.captured) == [9]
    assert outcome.captured_flow == 9
    assert a not in set(outcome.predicted_ids.tolist())


def test_single_shot_equals_region_model_on_a_single_loop():
    table = PathTable()
    pid = make_path(table, 0, "1", (0, 1, 2))
    trace = PathTrace(table, np.full(200, pid), name="mono")
    shot = NETPredictor(10, retire_heads=True).run(trace)
    region = NETPredictor(10).run(trace)
    assert list(shot.predicted_ids) == list(region.predicted_ids)
    assert list(shot.prediction_times) == list(region.prediction_times)
    assert list(shot.captured) == list(region.captured)


def test_single_shot_with_no_hot_heads_predicts_nothing():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    trace = PathTrace(table, [a] * 5)
    outcome = NETPredictor(100, retire_heads=True).run(trace)
    assert outcome.num_predictions == 0
    assert outcome.captured_flow == 0
    assert len(outcome.prediction_times) == 0
    assert outcome.predicted_ids.dtype == np.int64


def test_single_shot_empty_trace():
    outcome = NETPredictor(0, retire_heads=True).run(
        PathTrace(PathTable(), [])
    )
    assert outcome.num_predictions == 0
    assert outcome.counter_space == 0
