"""Extraction and event production must match the scalar oracles.

The columnar pipeline (``EventBatch`` → ``find_cuts`` → segment memo)
re-derives the paper's §3 segmentation; these tests pin it to the
one-event-at-a-time segmenter of :mod:`tests.trace.event_oracle` on
every bundled ISA program and on generated CFG workloads, across chunk
boundaries and every ``max_blocks`` regime.  The machine's batched
event stream is pinned to the oracle's one-instruction-at-a-time loop
on the same programs.
"""

import numpy as np
import pytest

from repro.cfg import generate_program, procedure_loops
from repro.errors import TraceError
from repro.experiments.engine.cache import trace_digest
from repro.isa import Machine, run_to_completion
from repro.isa.programs import (
    hashtable,
    lexer,
    matmul,
    propagate,
    rle,
    sort,
    stackvm,
)
from repro.trace import (
    CFGWalker,
    EventBatch,
    PathExtractor,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)
from repro.trace.batch import CODE_CALL, CODE_RETURN
from tests.trace.event_oracle import (
    machine_events,
    segment_paths,
    walk_events,
)

#: Every bundled ISA program with a small input (name, assembled, memory).
ISA_RUNS = [
    ("rle", rle, lambda m: m.make_memory(seed=5, size=200)),
    ("stackvm", stackvm, lambda m: m.make_memory(m.sum_program(60))),
    ("sort", sort, lambda m: m.make_memory(seed=5, size=60)),
    ("matmul", matmul, lambda m: m.make_memory(seed=5)),
    ("propagate", propagate, lambda m: m.make_memory(seed=5)),
    ("hashtable", hashtable, lambda m: m.make_memory(seed=5)),
    ("lexer", lexer, lambda m: m.make_memory(seed=5)),
]


def _chunks(batch: EventBatch, size: int) -> list[EventBatch]:
    return [
        batch.slice(start, start + size)
        for start in range(0, len(batch), size)
    ]


def _cfg_events(seed=19, trips=9):
    program = generate_program(seed=seed, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    oracle = TripCountOracle(RandomOracle(7, default_bias=0.5), trip_counts)
    return program, walk_events(program, oracle, 500_000)


@pytest.mark.parametrize(
    "name,module,make_memory", ISA_RUNS, ids=[r[0] for r in ISA_RUNS]
)
def test_isa_machine_events_match_oracle(name, module, make_memory):
    assembled = module.build()
    memory = make_memory(module)
    events, machine = run_to_completion(assembled, memory)
    reference = Machine(assembled)
    reference.load_memory(memory)
    assert events == machine_events(reference)
    assert machine.state.output == reference.state.output
    assert machine.state.steps == reference.state.steps


@pytest.mark.parametrize(
    "name,module,make_memory", ISA_RUNS, ids=[r[0] for r in ISA_RUNS]
)
def test_isa_programs_extract_digest_identically(name, module, make_memory):
    assembled = module.build()
    events, _ = run_to_completion(assembled, make_memory(module))
    program = assembled.cfg

    scalar = segment_paths(program, events)
    whole = record_path_trace(program, events)
    chunked = record_path_trace(program, iter(_chunks(events, 777)))

    assert trace_digest(whole) == trace_digest(scalar)
    assert trace_digest(chunked) == trace_digest(scalar)


@pytest.mark.parametrize(
    "name,module,make_memory", ISA_RUNS, ids=[r[0] for r in ISA_RUNS]
)
def test_isa_batched_paths_partition_block_entries(
    name, module, make_memory
):
    assembled = module.build()
    events, _ = run_to_completion(assembled, make_memory(module))
    program = assembled.cfg
    trace = record_path_trace(program, iter(_chunks(events, 509)))
    block_entries = 1 + int(np.count_nonzero(events.dst != -1))
    total_path_blocks = int(trace.blocks_per_path()[trace.path_ids].sum())
    assert total_path_blocks == block_entries


@pytest.mark.parametrize("max_blocks", [256, 7, 1, None])
def test_generated_cfg_extraction_agrees_per_max_blocks(max_blocks):
    program, events = _cfg_events()
    scalar = segment_paths(program, events, max_blocks=max_blocks)
    chunked = record_path_trace(
        program, iter(_chunks(events, 97)), max_blocks=max_blocks
    )
    assert trace_digest(chunked) == trace_digest(scalar)


def test_empty_stream_yields_single_entry_path(fig1_program):
    scalar = segment_paths(fig1_program, EventBatch.empty())
    batched = record_path_trace(fig1_program, EventBatch.empty())
    no_batches = record_path_trace(fig1_program, iter([]))
    assert scalar.flow == batched.flow == no_batches.flow == 1
    assert trace_digest(batched) == trace_digest(scalar)
    assert trace_digest(no_batches) == trace_digest(scalar)
    (path,) = list(batched.table)
    assert path.blocks == (fig1_program.entry_block.uid,)


def test_batch_continuity_validated_at_stream_head(fig1_program):
    extractor = PathExtractor(fig1_program)
    wrong_head = EventBatch([99], [1], [0], [False])
    with pytest.raises(TraceError, match="does not match current block"):
        extractor.extract_batch_ids(wrong_head)


def test_batch_continuity_validated_mid_batch(fig1_program):
    walker = CFGWalker(fig1_program, RandomOracle(0, default_bias=0.5))
    batch = EventBatch.concat(list(walker.walk_batched(10_000)))
    src = batch.src.copy()
    src[2] = 99  # break the src/dst chain
    broken = EventBatch(src, batch.dst, batch.kind, batch.backward)
    with pytest.raises(TraceError, match="does not match current block"):
        PathExtractor(fig1_program).extract_batch_ids(broken)


def test_extract_batch_occurrences_match_scalar(fig1_program):
    walker = CFGWalker(fig1_program, RandomOracle(4, default_bias=0.5))
    events = EventBatch.concat(list(walker.walk_batched(10_000)))
    scalar = segment_paths(fig1_program, events)
    extractor = PathExtractor(fig1_program)
    ids = extractor.extract_batch_ids(events)
    assert ids.tolist() == scalar.path_ids.tolist()
    assert list(extractor.table) == list(scalar.table)


def test_forward_return_cut_in_a_client_stream():
    """The return cut — a forward return closing a call made inside the
    path — on a whole stream.  A program's own streams never fire it:
    inside a path every transfer goes to a higher address, so the return
    that closes an in-path call is backward.  A serving client's stream
    can, because ``decode_batch`` only range-checks the ``kind`` and
    ``backward`` columns.  Here the forward call at event 177 returns at
    event 182 with no cut in between; clearing that return's backward
    bit turns its hard cut into a return cut.  Chunks of 7 and 1 carry
    the call into the batch that holds the return."""
    program = generate_program(seed=0, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = 4
    oracle = TripCountOracle(RandomOracle(0, default_bias=0.5), trip_counts)
    events = walk_events(program, oracle, 500_000)
    assert events.kind[177] == CODE_CALL and not events.backward[177]
    assert events.kind[182] == CODE_RETURN and events.backward[182]
    assert not events.backward[178:182].any()

    backward = events.backward.copy()
    backward[182] = False
    client = EventBatch(events.src, events.dst, events.kind, backward)
    expected = trace_digest(segment_paths(program, client))
    assert expected != trace_digest(segment_paths(program, events))
    assert trace_digest(record_path_trace(program, client)) == expected
    for size in (613, 7, 1):
        chunks = iter(_chunks(client, size))
        assert trace_digest(record_path_trace(program, chunks)) == expected
