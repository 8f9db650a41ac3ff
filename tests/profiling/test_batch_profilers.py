"""Every profiler's batch path must equal its scalar reference exactly.

``compare_schemes`` and the §4 cost tables are only trustworthy if the
vectorized ``observe_batch`` implementations produce byte-for-byte the
reports a one-event-at-a-time ``observe`` loop does
(:mod:`tests.profiling.profiler_oracle`) — same frequencies, same
counter space, same operation counts — for any chunking of the stream,
including one-event batches mixed with bulk ones.
"""

import numpy as np
import pytest

from repro.cfg import generate_program, number_program, procedure_loops
from repro.errors import TraceError
from repro.experiments.engine.cache import trace_digest
from repro.isa import run_to_completion
from repro.isa.programs import ALL_PROGRAMS, demo_memory
from repro.profiling import (
    BallLarusProfiler,
    BitTracingProfiler,
    BlockProfiler,
    EdgeProfiler,
    KBoundedPathProfiler,
    compare_schemes,
)
from repro.profiling.overhead import HeadCounterProfiler
from repro.trace import (
    CFGWalker,
    EventBatch,
    PathExtractor,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)
from repro.trace.batch import CODE_CALL, CODE_RETURN
from tests.profiling.profiler_oracle import SCALAR, scalar_report
from tests.trace.event_oracle import segment_paths, walk_events

#: name -> (profiler class, its constructor arguments for a program).
PROFILERS = {
    "bit-tracing": (BitTracingProfiler, lambda program: {"program": program}),
    "bit-tracing-short": (
        BitTracingProfiler,
        lambda program: {"program": program, "max_blocks": 7},
    ),
    "ball-larus": (BallLarusProfiler, lambda program: {"program": program}),
    "kpaths-inter": (
        KBoundedPathProfiler,
        lambda program: {"k": 8, "intraprocedural": False},
    ),
    "kpaths-intra": (
        KBoundedPathProfiler,
        lambda program: {"k": 3, "intraprocedural": True},
    ),
    "edge": (EdgeProfiler, lambda program: {}),
    "block": (
        BlockProfiler,
        lambda program: {"entry_uid": program.entry_block.uid},
    ),
    "net-heads": (HeadCounterProfiler, lambda program: {}),
}


def _profiler(name, program, scalar=False):
    cls, arguments = PROFILERS[name]
    arguments = arguments(program)
    if scalar:
        return SCALAR[cls](**arguments)
    cap = arguments.pop("max_blocks", None)
    profiler = cls(**arguments)
    if cap is not None:
        # Bit tracing caps paths at its extractor's 256 blocks; a
        # shorter cap on the extractor makes the cap cut this stream's
        # paths.
        profiler._extractor = PathExtractor(program, max_blocks=cap)
    return profiler


def _events(seed=11, trips=8):
    program = generate_program(seed=seed, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    oracle = TripCountOracle(RandomOracle(3, default_bias=0.5), trip_counts)
    return program, walk_events(program, oracle, 500_000)


def _chunks(batch, size):
    return [
        batch.slice(start, start + size)
        for start in range(0, len(batch), size)
    ]


@pytest.fixture(scope="module")
def stream():
    return _events()


@pytest.mark.parametrize("name", sorted(PROFILERS))
def test_batch_reports_equal_scalar_reports(name, stream):
    program, events = stream
    scalar = scalar_report(_profiler(name, program, scalar=True), events)

    assert _profiler(name, program).run(events) == scalar
    assert _profiler(name, program).run(iter(_chunks(events, 613))) == scalar
    assert _profiler(name, program).run(iter(_chunks(events, 3))) == scalar


@pytest.mark.parametrize("name", sorted(PROFILERS))
def test_mixed_scalar_and_batch_consumption(name, stream):
    """One-event batches (the batch form of a scalar ``observe``) and
    bulk batches, mixed in either order, report like the oracle."""
    program, events = stream
    scalar = scalar_report(_profiler(name, program, scalar=True), events)
    split = len(events) // 3

    # One event per batch for a prefix, then the remainder as one batch.
    mixed = _profiler(name, program)
    for index in range(split):
        mixed.observe_batch(events.slice(index, index + 1))
    mixed.observe_batch(events.slice(split, len(events)))
    assert mixed.report() == scalar

    # A bulk prefix, then the remainder one event per batch.
    mixed = _profiler(name, program)
    mixed.observe_batch(events.slice(0, split))
    for index in range(split, len(events)):
        mixed.observe_batch(events.slice(index, index + 1))
    assert mixed.report() == scalar


def _row_tuples(rows):
    """Overhead rows (or profile reports) as comparable tuples."""
    return [
        (row.scheme, row.counter_space, row.profiling_ops, row.num_units)
        for row in rows
    ]


def _scalar_rows(program, events):
    """compare_schemes' line-up, each profiler in its scalar form."""
    return _row_tuples(
        scalar_report(SCALAR[cls](**arguments), events)
        for cls, arguments in (
            (BitTracingProfiler, {"program": program}),
            (BallLarusProfiler, {"program": program}),
            (KBoundedPathProfiler, {"k": 8}),
            (EdgeProfiler, {}),
            (BlockProfiler, {"entry_uid": program.entry_block.uid}),
            (HeadCounterProfiler, {}),
        )
    )


def test_compare_schemes_rows_identical_across_representations(stream):
    program, events = stream
    rows = compare_schemes(program, events)
    assert compare_schemes(program, _chunks(events, 919)) == rows
    assert compare_schemes(program, iter(_chunks(events, 919))) == rows
    assert _row_tuples(rows) == _scalar_rows(program, events)


def test_overhead_workload_matches_oracles():
    """The §4 overhead study's stream (``overhead_rows`` and the
    event-pipeline bench), walked in batches: the same paths as the
    scalar segmenter, the same rows as the scalar profilers, and every
    profiler's report equal to its oracle's in chunks of 613 and 3.
    Unlike ``stream`` (one call), this run makes dozens of calls and
    returns."""
    program = generate_program(seed=25, num_procedures=4)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = 25
    oracle = TripCountOracle(RandomOracle(5, default_bias=0.5), trip_counts)
    walker = CFGWalker(program, oracle)
    batches = list(walker.walk_batched(max_events=20_000, truncate=True))
    events = EventBatch.concat(batches)
    assert trace_digest(record_path_trace(program, iter(batches))) == (
        trace_digest(segment_paths(program, events))
    )
    rows = compare_schemes(program, events)
    assert _row_tuples(rows) == _scalar_rows(program, events)
    for name in sorted(PROFILERS):
        scalar = scalar_report(_profiler(name, program, scalar=True), events)
        for size in (613, 3):
            chunks = _chunks(events, size)
            assert _profiler(name, program).run(chunks) == scalar, name


def _isa_stream(name):
    """A bundled ISA program's ``run_batched`` stream of a few thousand
    events (matmul's size knob is coarse, so it runs at a larger
    scale)."""
    assembled = ALL_PROGRAMS[name].build()
    scale = 0.2 if name == "matmul" else 0.05
    events, _ = run_to_completion(assembled, demo_memory(name, scale))
    return assembled.cfg, events


def _nonzero_exit_chord_sources(program):
    """Blocks whose edge to the virtual exit is a chord with a nonzero
    increment."""
    sources = set()
    for numbering in number_program(program).values():
        chords = set(numbering.chord_indices)
        for edge in numbering.edges:
            if (
                edge.index in chords
                and edge.dst == numbering.virtual_exit
                and numbering.increments[edge.index]
            ):
                sources.add(edge.src)
    return sorted(sources)


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_ball_larus_isa_streams_equal_scalar_reports(name):
    """A path that ends at a backward branch leaves through its tail's
    edge to the virtual exit.  In every ISA program some of those edges
    are chords with nonzero increments, so the batch path's virtual-exit
    terms change the counted path ids; the stream must end paths there
    for this check to cover them."""
    program, events = _isa_stream(name)
    path_ends = (
        events.backward
        & (events.kind != CODE_CALL)
        & (events.kind != CODE_RETURN)
    )
    tails = _nonzero_exit_chord_sources(program)
    assert np.isin(events.src[path_ends], tails).any()
    scalar = scalar_report(
        _profiler("ball-larus", program, scalar=True), events
    )
    assert _profiler("ball-larus", program).run(events) == scalar
    for size in (613, 3):
        chunks = iter(_chunks(events, size))
        assert _profiler("ball-larus", program).run(chunks) == scalar


def test_bit_tracing_batch_ignores_events_after_halt(stream):
    program, events = stream
    scalar = scalar_report(
        _profiler("bit-tracing", program, scalar=True), events
    )
    profiler = BitTracingProfiler(program)
    profiler.observe_batch(events)
    # The stream halted; later batches must not change the profile.
    profiler.observe_batch(events.slice(0, 5))
    assert profiler.report() == scalar


def test_bit_tracing_rejects_a_discontinuous_stream(stream):
    """An event must leave the block the previous event entered; bit
    tracing applies the extractor's continuity check, within a batch
    and across batches."""
    program, events = stream
    head = events.slice(0, 100)
    tail = events.slice(101, 200)
    assert tail.src[0] != head.dst[-1]

    profiler = BitTracingProfiler(program)
    profiler.observe_batch(head)
    with pytest.raises(TraceError, match="does not match"):
        profiler.observe_batch(tail)
    with pytest.raises(TraceError, match="does not match"):
        BitTracingProfiler(program).run(EventBatch.concat([head, tail]))
