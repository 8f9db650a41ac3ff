"""Occurrence-index helper shared by the predictors."""

import numpy as np

from repro.prediction import occurrence_index_arrays


def test_occurrence_index_arrays_groups_by_path():
    path_ids = np.array([2, 0, 2, 1, 2, 0])
    order, starts = occurrence_index_arrays(path_ids, 3)
    # Path 0 occurs at 1, 5; path 1 at 3; path 2 at 0, 2, 4.
    assert list(order[starts[0] : starts[1]]) == [1, 5]
    assert list(order[starts[1] : starts[2]]) == [3]
    assert list(order[starts[2] : starts[3]]) == [0, 2, 4]
    assert starts[3] == len(path_ids)


def test_occurrence_index_arrays_handles_missing_paths():
    path_ids = np.array([0, 0, 3])
    order, starts = occurrence_index_arrays(path_ids, 5)
    assert starts[1] - starts[0] == 2
    assert starts[2] - starts[1] == 0  # path 1 never occurs
    assert starts[4] - starts[3] == 1
    assert starts[5] - starts[4] == 0


def test_empty_sequence():
    order, starts = occurrence_index_arrays(np.array([], dtype=np.int64), 2)
    assert len(order) == 0
    assert list(starts) == [0, 0, 0]


def test_single_occurrence_path():
    path_ids = np.array([3], dtype=np.int64)
    order, starts = occurrence_index_arrays(path_ids, 5)
    assert list(order) == [0]
    assert list(order[starts[3] : starts[4]]) == [0]
