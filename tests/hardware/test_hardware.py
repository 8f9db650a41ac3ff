"""Hardware predictor models: accuracy and trace-cache behaviour."""

import pytest

from repro.errors import ReproError
from repro.hardware import (
    BimodalPredictor,
    GSharePredictor,
    StaticTakenPredictor,
    TraceCache,
    TwoLevelAdaptivePredictor,
    compare_branch_predictors,
)
from repro.isa import run_to_completion
from repro.isa.programs import rle, sort
from repro.trace import EventBatch
from repro.trace.batch import CODE_JUMP
from tests.conftest import walk_batch
from tests.trace.event_oracle import ScriptedOracle


def _loop_events(fig1_program, iterations=200):
    decisions = []
    for _ in range(iterations):
        decisions += [True, True]
    decisions += [False, False]
    return walk_batch(fig1_program, ScriptedOracle(decisions), 10_000)


def test_validation():
    with pytest.raises(ReproError):
        BimodalPredictor(table_size=0)
    with pytest.raises(ReproError):
        GSharePredictor(history_bits=0)
    with pytest.raises(ReproError):
        TwoLevelAdaptivePredictor(history_bits=0)
    with pytest.raises(ReproError):
        TraceCache(num_sets=0)


def test_bimodal_learns_a_steady_loop(fig1_program):
    events = _loop_events(fig1_program)
    stats = BimodalPredictor().simulate(events)
    # Two conditionals per iteration, both always taken until the exit.
    assert stats.accuracy_percent > 97.0
    assert stats.conditional_branches == 2 * 201


def test_static_taken_on_loops(fig1_program):
    events = _loop_events(fig1_program)
    stats = StaticTakenPredictor().simulate(events)
    assert stats.accuracy_percent > 98.0
    assert stats.table_bits == 0


def test_two_level_learns_alternation(fig1_program):
    # Alternate taken/not-taken on A: ABD / ACD alternating.
    decisions = []
    for index in range(300):
        decisions += [index % 2 == 0, True]
    decisions += [True, False, False]
    events = walk_batch(fig1_program, ScriptedOracle(decisions), 10_000)
    bimodal = BimodalPredictor().simulate(events)
    two_level = TwoLevelAdaptivePredictor().simulate(events)
    # The alternating pattern defeats per-branch counters but is
    # perfectly learnable from local history.
    assert two_level.accuracy_percent > bimodal.accuracy_percent + 10


def test_predictor_zoo_on_real_program():
    program = sort.build()
    events, _ = run_to_completion(program, sort.make_memory(seed=2, size=150))
    rows = compare_branch_predictors(events)
    by_name = {row.scheme: row for row in rows}
    assert set(by_name) == {
        "static-taken",
        "bimodal",
        "gshare",
        "two-level",
    }
    # Dynamic predictors beat the static baseline on branchy code.
    assert (
        by_name["bimodal"].accuracy_percent
        > by_name["static-taken"].accuracy_percent
    )
    for row in rows:
        assert row.conditional_branches == rows[0].conditional_branches


def test_trace_cache_warms_up_on_loops(fig1_program):
    events = _loop_events(fig1_program, iterations=400)
    cache = TraceCache(max_blocks=4, max_branches=2)
    stats = cache.simulate(events, fig1_program.entry_block.uid)
    assert stats.hit_rate_percent > 80.0
    assert stats.lines_installed >= 1


def test_trace_cache_line_limits():
    cache = TraceCache(max_blocks=3, max_branches=1)
    # A straight chain of 9 blocks (jumps only): lines of 3 blocks.
    chain = EventBatch(range(9), range(1, 10), [CODE_JUMP] * 9, [False] * 9)
    cache.simulate(chain, 0)
    for line in cache._sets.values():
        assert len(line.blocks) <= 3


def test_trace_cache_on_rle():
    program = rle.build()
    events, _ = run_to_completion(program, rle.make_memory(seed=1, size=2000))
    cache = TraceCache()
    stats = cache.simulate(events, program.cfg.entry_block.uid)
    assert stats.fetches > 0
    assert 0 <= stats.hit_rate_percent <= 100
