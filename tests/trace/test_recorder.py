"""PathTrace containers: arrays, masks, slicing, columns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.experiments.phases import phases_config
from repro.trace import (
    CFGWalker,
    PathTable,
    PathTrace,
    record_path_trace,
)
from repro.trace.path import STATIC_COLUMN_KEYS
from repro.workloads import WorkloadGenerator
from tests.conftest import ENGINE_TEST_SCALE, head_sequence, make_path
from tests.trace.event_oracle import ScriptedOracle


def _two_path_trace() -> PathTrace:
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1, 2), ends_backward=True)
    b = make_path(table, 40, "0", (10, 11))
    return PathTrace(table, [a, b, a, a, b], name="two-path")


def test_record_matches_extraction(fig1_program):
    decisions = [True, True, True, True, False, False]
    walker = CFGWalker(fig1_program, ScriptedOracle(decisions))
    events = walker.walk_batched(1000)
    trace = record_path_trace(fig1_program, events, name="fig1")
    assert trace.flow == 3  # two loop iterations + the exit path
    assert trace.freqs().sum() == 3


def test_trace_validates_ids():
    table = PathTable()
    make_path(table, 0, "1", (0, 1))
    with pytest.raises(TraceError):
        PathTrace(table, [0, 5])
    with pytest.raises(TraceError):
        PathTrace(table, [[0], [0]])


def test_per_path_arrays():
    table = PathTable()
    p0 = make_path(table, 0, "1", (0, 1, 2))
    p1 = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [p0, p1, p0])
    assert list(trace.freqs()) == [2, 1]
    assert list(trace.start_uids()) == [0, 10]
    assert list(trace.blocks_per_path()) == [3, 2]
    assert list(trace.instructions_per_path()) == [9, 6]
    assert list(head_sequence(trace)) == [0, 10, 0]


def test_backward_arrival_mask_uses_previous_path():
    table = PathTable()
    ends = make_path(table, 0, "1", (0, 1), ends_backward=True)
    stops = make_path(table, 40, "0", (10, 11), ends_backward=False)
    trace = PathTrace(table, [ends, stops, ends, ends])
    mask = trace.backward_arrival_mask()
    # First occurrence never arrives via a branch; second follows a
    # backward-ending path; third follows the non-backward path.
    assert list(mask) == [False, True, False, True]


def _unique_heads(trace: PathTrace) -> int:
    """The head count's oracle: distinct heads of backward arrivals."""
    heads = head_sequence(trace)[trace.backward_arrival_mask()]
    return len(np.unique(heads))


def test_dynamic_head_uids():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [a, b, a, b])
    # Arrivals via backward branches land at heads 10, 0, 10.
    assert trace.num_dynamic_heads() == _unique_heads(trace) == 2
    # The first occurrence is reached from the program entry.
    assert PathTrace(table, [a]).num_dynamic_heads() == 0


def test_dynamic_head_count_of_an_empty_trace():
    table = PathTable()
    make_path(table, 0, "1", (0, 1))
    for trace in (PathTrace(table, []), PathTrace(PathTable(), [])):
        assert trace.num_dynamic_heads() == _unique_heads(trace) == 0


def test_dynamic_head_count_matches_oracle_on_workloads(all_small_traces):
    traces = [*all_small_traces.values()]
    traces.append(WorkloadGenerator(phases_config(ENGINE_TEST_SCALE)).generate())
    for trace in traces:
        assert trace.num_dynamic_heads() == _unique_heads(trace), trace.name


@given(
    heads=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    backward=st.lists(st.booleans(), min_size=8, max_size=8),
    occurrences=st.lists(st.integers(0, 7), max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_dynamic_head_count_matches_oracle(heads, backward, occurrences):
    """Paths sharing heads, some ending forward, in any order."""
    table = PathTable()
    ids = [
        make_path(
            table,
            4 * head,
            format(index, "b"),
            (head, 100 + index),
            ends_backward=backward[index],
        )
        for index, head in enumerate(heads)
    ]
    trace = PathTrace(table, [ids[i % len(ids)] for i in occurrences])
    assert trace.num_dynamic_heads() == _unique_heads(trace)


def test_slice_and_concat():
    table = PathTable()
    a = make_path(table, 0, "1", (0, 1))
    b = make_path(table, 40, "0", (10, 11))
    trace = PathTrace(table, [a, a, b, b])
    head = trace.slice(0, 2)
    tail = trace.slice(2, 4)
    assert head.flow == 2 and list(head.freqs()) == [2, 0]
    joined = np.concatenate([head.path_ids, tail.path_ids])
    assert np.array_equal(joined, trace.path_ids)


def test_summarize(fig1_program):
    from repro.trace import summarize

    decisions = [True, True, True, True, False, False]
    walker = CFGWalker(fig1_program, ScriptedOracle(decisions))
    events = walker.walk_batched(1000)
    trace = record_path_trace(fig1_program, events, name="fig1")
    summary = summarize(trace)
    assert summary.flow == 3
    assert summary.num_paths == 2
    assert summary.num_unique_heads == 1
    assert "fig1" in summary.render()


def test_occurrence_index_matches_helper_and_is_cached():
    from repro.prediction.base import occurrence_index_arrays

    trace = _two_path_trace()
    order, starts = trace.occurrence_index()
    ref_order, ref_starts = occurrence_index_arrays(
        trace.path_ids, trace.num_paths
    )
    assert np.array_equal(order, ref_order)
    assert np.array_equal(starts, ref_starts)
    # Cached: the same objects come back on the second call.
    order2, starts2 = trace.occurrence_index()
    assert order2 is order and starts2 is starts


def test_static_columns_cover_declared_keys():
    trace = _two_path_trace()
    columns = trace.static_columns()
    assert set(columns) == set(STATIC_COLUMN_KEYS)
    for key in STATIC_COLUMN_KEYS:
        assert len(columns[key]) == trace.num_paths


class _ReenteringCache(dict):
    """A memo dict that asks ``memo`` again right after its first store:
    what a second thread arriving between two stores would see."""

    def __init__(self, entries: dict, memo):
        super().__init__(entries)
        self.memo = memo
        self.reentered = None

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if self.reentered is None:
            self.reentered = self.memo()


@pytest.mark.parametrize(
    "memo", ["occurrence_index", "head_arrival_ranks"]
)
def test_memo_is_whole_to_a_reader_between_stores(memo):
    """Regression: each memo once stored its two arrays under two keys,
    so a thread arriving between the stores found the first key, skipped
    the build and failed on the missing second one."""
    expected = getattr(_two_path_trace(), memo)()
    trace = _two_path_trace()
    # Warm the memo head_arrival_ranks builds on, so the first store
    # the dict sees is the memo's own.
    trace.backward_arrival_mask()
    cache = _ReenteringCache(trace._cache, getattr(trace, memo))
    trace._cache = cache
    result = getattr(trace, memo)()
    for got in (result, cache.reentered):
        assert len(got) == len(expected)
        for array, want in zip(got, expected):
            assert np.array_equal(array, want)
