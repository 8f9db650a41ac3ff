"""CFG walker and oracles."""

import pytest

from repro.cfg import ProgramBuilder
from repro.errors import MachineLimitExceeded, TraceError
from repro.trace import (
    HALT_DST,
    CFGWalker,
    RandomOracle,
    TripCountOracle,
)
from repro.trace.batch import CODE_CALL, CODE_INDIRECT
from tests.conftest import walk_batch
from tests.trace.event_oracle import ScriptedOracle


def test_walker_requires_finalized_program():
    from repro.cfg.program import Program

    with pytest.raises(TraceError):
        CFGWalker(Program(), RandomOracle(0))


def test_walk_emits_halt_last(fig1_program):
    events = walk_batch(fig1_program, ScriptedOracle([False, False]), 100)
    assert events.dst[-1] == HALT_DST


def test_walk_budget(fig1_program):
    oracle = RandomOracle(0, default_bias=1.0)  # loops forever
    with pytest.raises(MachineLimitExceeded):
        list(CFGWalker(fig1_program, oracle).walk_batched(max_events=50))


def test_trip_count_oracle_bounds_loops(fig1_program):
    main = fig1_program.procedures["main"]
    d_uid = main.block("D").uid
    oracle = TripCountOracle(RandomOracle(0), {d_uid: 3})
    events = walk_batch(fig1_program, oracle, 10_000)
    # exactly three loop-back transfers
    assert int(events.backward.sum()) == 3


def test_trip_count_oracle_resets(call_program):
    main = call_program.procedures["main"]
    post = main.block("post").uid
    helper_head = call_program.procedures["helper"].block("h0").uid
    oracle = TripCountOracle(
        RandomOracle(1, default_bias=0.5), {post: 2}
    )
    events = walk_batch(call_program, oracle, 10_000)
    # post taken twice -> loop runs 3 times -> helper entered 3 times.
    calls = events.dst[events.kind == CODE_CALL].tolist()
    assert calls == [helper_head] * 3


def test_trip_count_rejects_negative():
    with pytest.raises(TraceError):
        TripCountOracle(RandomOracle(0), {1: -1})


def test_trip_count_counter_resets_on_reentry(fig1_program):
    """After a loop exits, re-entering it gets the full trip count again."""
    header = fig1_program.procedures["main"].block("D")
    oracle = TripCountOracle(RandomOracle(0), {header.uid: 2})
    decisions = [oracle.decide_cond(header) for _ in range(6)]
    assert decisions == [True, True, False, True, True, False]


def test_trip_count_zero_trips_exits_immediately(fig1_program):
    header = fig1_program.procedures["main"].block("D")
    oracle = TripCountOracle(RandomOracle(0), {header.uid: 0})
    assert [oracle.decide_cond(header) for _ in range(3)] == [False] * 3


def test_scripted_oracle_type_checks(fig1_program):
    with pytest.raises(TraceError):
        walk_batch(fig1_program, ScriptedOracle([1]), 100)
    with pytest.raises(TraceError):  # runs out of decisions
        walk_batch(fig1_program, ScriptedOracle([True]), 100)


def test_scripted_oracle_exhaustion_message(fig1_program):
    block = fig1_program.procedures["main"].block("A")
    oracle = ScriptedOracle([])
    with pytest.raises(TraceError, match="ran out of decisions"):
        oracle.decide_cond(block)
    with pytest.raises(TraceError, match="ran out of decisions"):
        ScriptedOracle([]).decide_multiway(block, 2)


def test_scripted_oracle_multiway_type_and_range_errors(fig1_program):
    block = fig1_program.procedures["main"].block("A")
    with pytest.raises(TraceError, match="expected an integer"):
        ScriptedOracle([True]).decide_multiway(block, 3)
    with pytest.raises(TraceError, match="out of range"):
        ScriptedOracle([5]).decide_multiway(block, 3)
    with pytest.raises(TraceError, match="out of range"):
        ScriptedOracle([-1]).decide_multiway(block, 3)
    with pytest.raises(TraceError, match="expected a boolean"):
        ScriptedOracle([2]).decide_cond(block)


def test_random_oracle_determinism(fig1_program):
    events_a = walk_batch(fig1_program, RandomOracle(9), 1000)
    events_b = walk_batch(fig1_program, RandomOracle(9), 1000)
    assert events_a == events_b


def test_indirect_walks_cover_targets():
    builder = ProgramBuilder("switchy")
    main = builder.procedure("main")
    main.block("top", size=1).cond(taken="sw", fallthrough="done")
    main.block("sw", size=1).indirect("arm0", "arm1", "arm2")
    main.block("arm0", size=1).jump("latch")
    main.block("arm1", size=1).jump("latch")
    main.block("arm2", size=1).jump("latch")
    main.block("latch", size=1).jump("top")
    main.block("done", size=1).halt()
    program = builder.build()
    top = program.procedures["main"].block("top").uid
    oracle = TripCountOracle(RandomOracle(3), {top: 50})
    events = walk_batch(program, oracle, 100_000)
    indirect_targets = set(events.dst[events.kind == CODE_INDIRECT].tolist())
    arms = {
        program.procedures["main"].block(f"arm{i}").uid for i in range(3)
    }
    assert indirect_targets == arms  # all switch arms exercised
