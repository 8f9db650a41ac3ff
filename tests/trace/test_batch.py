"""Columnar event batches: validation and the batched producers.

The producers are checked against the one-transfer-at-a-time walker
and machine loop of :mod:`tests.trace.event_oracle`.
"""

import time

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


#: Column dtypes of every batch a producer yields.
COLUMN_DTYPES = (np.int64, np.int64, np.uint8, np.bool_)


def _columns(batch):
    return (batch.src, batch.dst, batch.kind, batch.backward)


def _drain(stream):
    """Every batch of ``stream``.  Each batch must carry the column
    dtypes, and the first one must be unchanged once the stream is
    exhausted: a producer that reused its storage for later batches
    would rewrite it."""
    first = next(stream)
    kept = EventBatch(*(column.copy() for column in _columns(first)))
    batches = [first, *stream]
    assert len(batches) > 1
    for batch in batches:
        assert tuple(c.dtype for c in _columns(batch)) == COLUMN_DTYPES
    assert first == kept
    return batches


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
    batches = _drain(walker.walk_batched(max_events=500_000, batch_size=997))
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


def test_walk_batched_times_only_the_walker():
    """Time the consumer spends between batches is not generation time:
    the walker's own stretches and the consumer's sleeps are disjoint
    parts of the wall time."""
    _, walker = _bounded_walker()
    registry = Registry()
    slept = 0.0
    started = time.perf_counter()
    for _ in walker.walk_batched(batch_size=32, obs=registry):
        before = time.perf_counter()
        time.sleep(0.02)
        slept += time.perf_counter() - before
    wall = time.perf_counter() - started
    snapshot = registry.snapshot()
    generate = snapshot["timers"]["tracegen.generate"]["total_seconds"]
    assert snapshot["counters"]["tracegen.batches"] == 5
    assert 0 < generate <= wall - slept
    assert snapshot["gauges"]["tracegen.events_per_sec"] == pytest.approx(
        snapshot["counters"]["tracegen.events"] / generate
    )


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
    batches = _drain(batched.run_batched(batch_size=97))
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
