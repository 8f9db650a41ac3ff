"""Property-based tests: path extraction invariants.

For arbitrary generated programs and random decision streams, the
extractor must (a) partition every executed block into exactly one path,
(b) start every non-initial path where the previous one handed off,
(c) count, through the bit-tracing profiler, the signatures a scalar
signature register builds, and
(d) intern the same paths, in the same order, as the one-event-at-a-time
segmenter of :mod:`tests.trace.event_oracle` for any split of the stream.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfg import GeneratorParams, generate_program, procedure_loops
from repro.profiling import BitTracingProfiler
from repro.trace import (
    CFGWalker,
    EventBatch,
    PathExtractor,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)
from tests.conftest import walk_batch
from tests.profiling.profiler_oracle import (
    ScalarBitTracingProfiler,
    scalar_report,
)
from tests.trace.event_oracle import segment_paths

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bounded_events(program_seed: int, oracle_seed: int, trips: int):
    params = GeneratorParams(max_depth=2, max_elements=3)
    program = generate_program(
        seed=program_seed, num_procedures=2, params=params
    )
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    oracle = TripCountOracle(
        RandomOracle(oracle_seed, default_bias=0.5), trip_counts
    )
    return program, walk_batch(program, oracle, 100_000)


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
)
@_settings
def test_paths_partition_block_entries(program_seed, oracle_seed, trips):
    program, events = _bounded_events(program_seed, oracle_seed, trips)
    trace = record_path_trace(program, events)
    block_entries = 1 + int(np.count_nonzero(events.dst != -1))
    total_path_blocks = sum(
        trace.table.path(path_id).num_blocks
        for path_id in trace.path_ids.tolist()
    )
    assert total_path_blocks == block_entries


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
)
@_settings
def test_consecutive_paths_chain(program_seed, oracle_seed, trips):
    """Each path starts at the block the previous transfer targeted."""
    program, events = _bounded_events(program_seed, oracle_seed, trips)
    trace = record_path_trace(program, events)
    paths = [trace.table.path(i) for i in trace.path_ids.tolist()]
    # Rebuild the block-entry sequence and compare against concatenation.
    entered = [program.entry_block.uid]
    entered += events.dst[events.dst != -1].tolist()
    concatenated = [uid for path in paths for uid in path.blocks]
    assert concatenated == entered


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
)
@_settings
def test_bit_tracing_equals_scalar_oracle(
    program_seed, oracle_seed, trips
):
    """The extractor-backed profiler reports what a signature register
    shifted one event at a time reports: the same signature counts,
    counter space and operation count."""
    program, events = _bounded_events(program_seed, oracle_seed, trips)
    scalar = scalar_report(ScalarBitTracingProfiler(program), events)
    assert BitTracingProfiler(program).run(events) == scalar


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
    chunk=st.integers(1, 200),
)
@_settings
def test_batched_extraction_partitions_block_entries(
    program_seed, oracle_seed, trips, chunk
):
    """The extractor obeys the partition invariant for any chunking of
    the stream (every executed block lands in exactly one path), and
    agrees with the scalar segmenter."""
    program, batch = _bounded_events(program_seed, oracle_seed, trips)
    chunks = [
        batch.slice(start, start + chunk)
        for start in range(0, len(batch), chunk)
    ]
    trace = record_path_trace(program, iter(chunks))
    block_entries = 1 + int(np.count_nonzero(batch.dst != -1))
    total_path_blocks = int(trace.blocks_per_path()[trace.path_ids].sum())
    assert total_path_blocks == block_entries
    scalar = segment_paths(program, batch)
    assert np.array_equal(trace.path_ids, scalar.path_ids)


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(1, 8),
)
@_settings
def test_backward_ending_paths_start_next_at_branch_target(
    program_seed, oracle_seed, trips
):
    program, events = _bounded_events(program_seed, oracle_seed, trips)
    trace = record_path_trace(program, events)
    occurrences = trace.path_ids.tolist()
    heads = program.backward_branch_targets()
    for previous, current in zip(occurrences, occurrences[1:]):
        if trace.table.path(previous).ends_with_backward_branch:
            assert trace.table.path(current).start_uid in heads


@given(
    program_seed=st.integers(0, 200),
    oracle_seed=st.integers(0, 1000),
    trips=st.integers(0, 8),
    num_procedures=st.sampled_from([1, 3]),
    max_blocks=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 256, None]),
    data=st.data(),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stream_feed_over_random_splits_matches_scalar(
    program_seed, oracle_seed, trips, num_procedures, max_blocks, data
):
    """Feeding a stream in arbitrary pieces interns the same paths, in
    the same order, as the scalar segmenter.  One-procedure programs
    make no calls (``find_cuts``'s hard-cut shortcut, or its fall-
    through when a region outgrows ``max_blocks``); three-procedure
    programs add call and return cuts.  Splits exercise the carry."""
    program = generate_program(
        seed=program_seed, num_procedures=num_procedures
    )
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    oracle = TripCountOracle(
        RandomOracle(oracle_seed, default_bias=0.5), trip_counts
    )
    batch = EventBatch.concat(
        list(
            CFGWalker(program, oracle).walk_batched(
                max_events=2_000, batch_size=2_000, truncate=True
            )
        )
    )
    scalar = segment_paths(program, batch, max_blocks=max_blocks)
    expected = scalar.path_ids.tolist()

    splits = data.draw(st.lists(st.integers(0, len(batch)), max_size=16))
    bounds = [0, *sorted(splits), len(batch)]
    extractor = PathExtractor(program, max_blocks=max_blocks)
    stream = extractor.stream()
    ids = []
    for begin, end in zip(bounds, bounds[1:]):
        ids.extend(stream.feed(batch.slice(begin, end)))
    ids.extend(stream.finish())
    assert ids == expected
    assert list(extractor.table) == list(scalar.table)
