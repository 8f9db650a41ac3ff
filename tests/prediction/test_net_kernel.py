"""The all-delays NET kernel against the per-τ reference replay.

:func:`reference_net` is NET as it used to run: every call replays the
trace from scratch at one delay, finding each head's hot time by
grouping its counted arrivals and then marking the occurrences at or
after it.  :class:`~repro.prediction.NETPredictor` instead thresholds a
per-trace rank memo; these tests prove the two equal on every outcome
field and dtype.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.sweep import DEFAULT_DELAYS
from repro.prediction import (
    NETPredictor,
    PredictionOutcome,
    occurrence_index_arrays,
)
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from tests.conftest import head_sequence, make_path

MODES = [
    (backward_only, retire)
    for backward_only in (True, False)
    for retire in (False, True)
]


def remaining_after(
    order: np.ndarray,
    starts: np.ndarray,
    path_id: int,
    time: int,
) -> int:
    """Executions of ``path_id`` at occurrence index ≥ ``time``."""
    occurrences = order[starts[path_id] : starts[path_id + 1]]
    cut = np.searchsorted(occurrences, time, side="left")
    return int(len(occurrences) - cut)


def reference_net(
    trace: PathTrace,
    delay: int,
    count_backward_arrivals_only: bool = True,
    retire_heads: bool = False,
) -> PredictionOutcome:
    """NET replayed from scratch at one delay (the per-τ oracle)."""
    n = trace.flow
    head_seq = head_sequence(trace)
    if count_backward_arrivals_only:
        counted = trace.backward_arrival_mask()
    else:
        counted = np.ones(n, dtype=bool)
    counted_indices = np.flatnonzero(counted)
    counted_heads = head_seq[counted_indices]
    unique_heads, inverse, arrivals = np.unique(
        counted_heads, return_inverse=True, return_counts=True
    )
    by_head = counted_indices[np.argsort(inverse, kind="stable")]
    ends = np.cumsum(arrivals)
    # Each head turns hot at its (τ+1)-th counted arrival.
    hot_time = {
        int(uid): int(by_head[end - count + delay])
        for uid, count, end in zip(unique_heads, arrivals, ends)
        if count > delay
    }

    if retire_heads:
        order, starts = occurrence_index_arrays(
            trace.path_ids, trace.num_paths
        )
        times = np.asarray(sorted(hot_time.values()), dtype=np.int64)
        predicted = trace.path_ids[times]
        captured = np.asarray(
            [
                remaining_after(order, starts, int(path_id), int(time))
                for path_id, time in zip(predicted, times)
            ],
            dtype=np.int64,
        )
    else:
        hot_lookup = np.full(int(head_seq.max(initial=0)) + 1, n)
        for uid, time in hot_time.items():
            hot_lookup[uid] = time
        hot = np.arange(n) >= hot_lookup[head_seq]
        per_path = np.bincount(trace.path_ids[hot], minlength=trace.num_paths)
        predicted = np.flatnonzero(per_path > 0).astype(np.int64)
        first_hot = np.full(trace.num_paths, n, dtype=np.int64)
        hot_indices = np.flatnonzero(hot)
        np.minimum.at(first_hot, trace.path_ids[hot_indices], hot_indices)
        times = first_hot[predicted]
        captured = per_path[predicted].astype(np.int64)

    by_time = np.argsort(times, kind="stable")
    predicted = predicted[by_time]
    return PredictionOutcome(
        scheme="net",
        delay=delay,
        predicted_ids=predicted,
        prediction_times=times[by_time],
        captured=captured[by_time],
        counter_space=len(unique_heads),
        profiling_ops=int(np.minimum(arrivals, delay + 1).sum())
        + int(trace.blocks_per_path()[predicted].sum()),
    )


def assert_same_outcome(got: PredictionOutcome, want: PredictionOutcome):
    for field in dataclasses.fields(PredictionOutcome):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def check_kernel(trace: PathTrace, delays, backward_only, retire):
    for delay in delays:
        got = NETPredictor(
            delay,
            count_backward_arrivals_only=backward_only,
            retire_heads=retire,
        ).run(trace)
        assert_same_outcome(
            got, reference_net(trace, delay, backward_only, retire)
        )


def delays_for(trace: PathTrace) -> list[int]:
    """The sweep delays plus 0 and one past every head's arrivals."""
    past_all = int(np.bincount(head_sequence(trace)).max(initial=0)) + 1
    return [0, *DEFAULT_DELAYS, past_all]


# ----------------------------------------------------------------------
# The reference's own building block
# ----------------------------------------------------------------------
def test_remaining_after():
    path_ids = np.array([0, 1, 0, 0, 1, 0])
    order, starts = occurrence_index_arrays(path_ids, 2)
    # Path 0 occurs at 0, 2, 3, 5.
    assert remaining_after(order, starts, 0, 0) == 4
    assert remaining_after(order, starts, 0, 1) == 3
    assert remaining_after(order, starts, 0, 3) == 2
    assert remaining_after(order, starts, 0, 6) == 0
    assert remaining_after(order, starts, 1, 4) == 1


def test_remaining_after_single_occurrence_path():
    order, starts = occurrence_index_arrays(np.array([3]), 5)
    assert remaining_after(order, starts, 3, 0) == 1
    assert remaining_after(order, starts, 3, 1) == 0


def test_remaining_after_time_past_last_occurrence():
    path_ids = np.array([0, 1, 0], dtype=np.int64)
    order, starts = occurrence_index_arrays(path_ids, 2)
    # Past the last occurrence (and past the trace end entirely).
    assert remaining_after(order, starts, 0, 3) == 0
    assert remaining_after(order, starts, 0, 10_000) == 0
    assert remaining_after(order, starts, 1, 2) == 0


def test_remaining_after_id_absent_from_trace():
    path_ids = np.array([0, 0, 2], dtype=np.int64)
    order, starts = occurrence_index_arrays(path_ids, 4)
    # Paths 1 and 3 are interned but never occur: zero at any time.
    for absent in (1, 3):
        assert starts[absent] == starts[absent + 1]
        assert remaining_after(order, starts, absent, 0) == 0
        assert remaining_after(order, starts, absent, 99) == 0


def test_empty_trace_remaining_after_any_path_is_zero():
    order, starts = occurrence_index_arrays(np.array([], dtype=np.int64), 3)
    for path_id in range(3):
        assert remaining_after(order, starts, path_id, 0) == 0


# ----------------------------------------------------------------------
# Kernel == reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backward_only,retire", MODES)
def test_kernel_equals_reference_on_every_benchmark(
    all_small_traces, backward_only, retire
):
    assert len(all_small_traces) == 9
    for trace in all_small_traces.values():
        check_kernel(trace, delays_for(trace), backward_only, retire)


def test_memo_is_independent_of_delay_order(small_deltablue):
    delays = delays_for(small_deltablue)
    random.Random(7).shuffle(delays)
    # A fresh trace object: its memo is built by whichever delay comes
    # first, then shared by every later one.
    trace = PathTrace(small_deltablue.table, small_deltablue.path_ids)
    for backward_only, retire in MODES:
        check_kernel(trace, delays, backward_only, retire)


@st.composite
def random_traces(draw):
    """Traces over a few heads shared by several paths, where any path
    may or may not end in a backward branch (the empty trace included)."""
    num_paths = draw(st.integers(1, 8))
    table = PathTable()
    ids = []
    for index in range(num_paths):
        head = draw(st.integers(0, 3)) * 10
        blocks = (head, 1000 + 10 * index, 1001 + 10 * index)
        ids.append(
            make_path(
                table,
                head * 4,
                format(index, "04b"),
                blocks,
                ends_backward=draw(st.booleans()),
            )
        )
    sequence = draw(st.lists(st.sampled_from(ids), max_size=300))
    return PathTrace(table, np.asarray(sequence, dtype=np.int64))


@given(
    trace=random_traces(),
    delays=st.lists(st.integers(0, 60), min_size=1, max_size=4),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_equals_reference_on_random_traces(trace, delays):
    for backward_only, retire in MODES:
        check_kernel(trace, delays, backward_only, retire)


def test_kernel_equals_reference_on_the_empty_trace():
    table = PathTable()
    make_path(table, 0, "1", (0, 1))
    for trace in (PathTrace(table, []), PathTrace(PathTable(), [])):
        for backward_only, retire in MODES:
            check_kernel(trace, [0, 5], backward_only, retire)
