"""Columnar event batches: validation, builders, batched producers.

The producers are checked against the one-transfer-at-a-time walker
and machine loop of :mod:`tests.trace.event_oracle`.
"""

import numpy as np
import pytest

from repro.cfg import GeneratorParams, generate_program, procedure_loops
from repro.errors import MachineError, MachineLimitExceeded, TraceError
from repro.isa import Machine, assemble
from repro.isa.programs import rle
from repro.obs import Registry
from repro.trace import (
    HALT_DST,
    CFGWalker,
    EventBatch,
    EventBatchBuilder,
    RandomOracle,
    TripCountOracle,
)
from repro.trace.batch import CODE_INDIRECT, CODE_RETURN
from tests.trace.event_oracle import machine_events, walk_events


def _bounded_walker(program_seed=3, oracle_seed=7, trips=4):
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
    return program, CFGWalker(program, oracle)


# ----------------------------------------------------------------------
# EventBatch container
# ----------------------------------------------------------------------
def test_columns_must_be_one_dimensional():
    with pytest.raises(TraceError, match="must be 1-D"):
        EventBatch(np.zeros((2, 2), np.int64), [0, 0], [0, 0], [False, False])


def test_columns_must_align():
    with pytest.raises(TraceError, match="entries"):
        EventBatch([0, 1], [1], [0, 0], [False, False])


def test_unknown_kind_code_rejected():
    with pytest.raises(TraceError, match="unknown kind code"):
        EventBatch([0], [1], [7], [False])


def test_concat_slice_empty():
    a = EventBatch([0, 1], [1, 2], [0, 1], [False, True])
    b = EventBatch([2], [0], [3], [True])
    joined = EventBatch.concat([a, EventBatch.empty(), b])
    assert len(joined) == 3
    assert joined.slice(0, 2) == a
    assert joined.slice(2, 3) == b
    assert EventBatch.concat([]) == EventBatch.empty()
    assert len(EventBatch.empty()) == 0


def test_builder_resets_after_build():
    builder = EventBatchBuilder()
    builder.append(0, 1, 0, False)
    builder.append(1, 2, 1, False)
    first = builder.build()
    assert len(first) == 2
    assert len(builder) == 0
    builder.append(2, 0, 3, True)
    second = builder.build()
    assert len(second) == 1
    assert int(second.src[0]) == 2


def test_builder_growth_preserves_dtypes():
    # Regression: growing past the initial capacity must keep the
    # columnar dtypes (int64/int64/uint8/bool) instead of letting numpy
    # re-infer them during reallocation.
    builder = EventBatchBuilder(capacity=2)
    for index in range(197):
        builder.append(index, index + 1, index % 4, index % 3 == 0)
    batch = builder.build()
    assert len(batch) == 197
    assert batch.src.dtype == np.int64
    assert batch.dst.dtype == np.int64
    assert batch.kind.dtype == np.uint8
    assert batch.backward.dtype == np.bool_
    assert batch.src[0] == 0 and batch.src[196] == 196
    assert batch.dst[196] == 197
    assert bool(batch.backward[0]) and not bool(batch.backward[1])


def test_builder_build_does_not_alias_storage():
    # Regression: a published batch must not share memory with the
    # builder's reusable buffers — later appends would rewrite history.
    builder = EventBatchBuilder(capacity=4)
    builder.append(10, 11, 0, False)
    builder.append(11, 12, 1, True)
    first = builder.build()
    for column in ("src", "dst", "kind", "backward"):
        assert not np.shares_memory(
            getattr(first, column), getattr(builder, f"_{column}")
        ), column
    builder.append(99, 100, 2, False)
    second = builder.build()
    assert list(first.src) == [10, 11]
    assert list(first.dst) == [11, 12]
    assert list(second.src) == [99]
    # Batches built before a growth cycle stay intact through it.
    for index in range(64):
        builder.append(index, index, 0, False)
    builder.build()
    assert list(first.src) == [10, 11]


def test_builder_rejects_bad_capacity():
    with pytest.raises(TraceError, match="capacity"):
        EventBatchBuilder(capacity=0)


# ----------------------------------------------------------------------
# Batched CFG walking
# ----------------------------------------------------------------------
def test_walk_batched_matches_walk():
    """A run with every transfer kind — calls, forward and backward
    returns, indirect jumps — equals the per-terminator oracle."""
    program = generate_program(seed=19, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = 9

    def oracle():
        return TripCountOracle(RandomOracle(7, default_bias=0.5), trip_counts)

    events = walk_events(program, oracle(), 500_000)
    walker = CFGWalker(program, oracle())
    batches = list(walker.walk_batched(max_events=500_000, batch_size=997))
    assert EventBatch.concat(batches) == events
    assert batches[-1].dst[-1] == HALT_DST
    returns = events.kind == CODE_RETURN
    assert (events.backward & returns).any()
    assert (~events.backward & returns).any()
    assert (events.kind == CODE_INDIRECT).any()


def test_walk_batched_respects_batch_size():
    _, walker = _bounded_walker()
    batches = list(
        walker.walk_batched(max_events=100_000, batch_size=8)
    )
    assert all(len(batch) <= 8 for batch in batches)
    assert all(len(batch) == 8 for batch in batches[:-1])


def test_walk_batched_rejects_bad_batch_size(fig1_program):
    walker = CFGWalker(fig1_program, RandomOracle(0))
    with pytest.raises(TraceError, match="batch_size"):
        list(walker.walk_batched(batch_size=0))


def test_walk_batched_truncate_matches_islice(fig1_program):
    oracle = RandomOracle(0, default_bias=1.0)
    batched = CFGWalker(fig1_program, RandomOracle(0, default_bias=1.0))
    events = walk_events(fig1_program, oracle, 50, truncate=True)
    batches = list(batched.walk_batched(max_events=50, truncate=True))
    assert len(events) == 50
    assert EventBatch.concat(batches) == events


def test_walk_batched_budget_raises_like_walk(fig1_program):
    walker = CFGWalker(fig1_program, RandomOracle(0, default_bias=1.0))
    with pytest.raises(MachineLimitExceeded):
        list(walker.walk_batched(max_events=50))


def test_walk_batched_publishes_tracegen_instruments():
    _, walker = _bounded_walker()
    registry = Registry()
    batches = list(walker.walk_batched(max_events=100_000, obs=registry))
    counters = registry.snapshot()["counters"]
    assert counters["tracegen.events"] == sum(len(b) for b in batches)
    assert counters["tracegen.batches"] == len(batches)


# ----------------------------------------------------------------------
# Batched ISA machine
# ----------------------------------------------------------------------
def test_run_batched_matches_run():
    memory = rle.make_memory(seed=0, size=200)
    scalar = Machine(rle.build())
    scalar.load_memory(memory)
    events = machine_events(scalar)

    batched = Machine(rle.build())
    batched.load_memory(memory)
    batches = list(batched.run_batched(batch_size=997))
    assert EventBatch.concat(batches) == events
    assert batched.state.output == scalar.state.output


def test_run_batched_budget_raises_like_run():
    program = assemble(".proc main\nloop:\n    jmp loop\n.endproc")
    with pytest.raises(MachineLimitExceeded):
        list(Machine(program).run_batched(max_steps=100))
    with pytest.raises(MachineLimitExceeded):
        machine_events(Machine(program), max_steps=100)


def test_run_batched_rejects_bad_batch_size():
    program = assemble(".proc main\n    halt\n.endproc")
    with pytest.raises(MachineError, match="batch_size"):
        list(Machine(program).run_batched(batch_size=0))
