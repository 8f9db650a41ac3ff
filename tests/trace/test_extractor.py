"""Path extraction against the paper's §3 path definition."""

import pytest

from repro.errors import TraceError
from repro.trace import EventBatch, PathExtractor, record_path_trace
from repro.trace.batch import CODE_JUMP
from tests.conftest import signature_bits, walk_batch
from tests.trace.event_oracle import ScriptedOracle


def _run(program, decisions, max_blocks=256):
    """(path id per occurrence, table) of one scripted walk."""
    events = walk_batch(program, ScriptedOracle(decisions), 10_000)
    trace = record_path_trace(program, events, max_blocks=max_blocks)
    return trace.path_ids.tolist(), trace.table


def test_fig1_single_iteration_paths(fig1_program):
    # Taken A->B, D taken back to A (backward, ends path 1);
    # then A->C (not taken), D not taken -> exit -> halt (path 2).
    occurrences, table = _run(
        fig1_program, [True, True, False, False]
    )
    assert len(occurrences) == 2
    first = table.path(occurrences[0])
    labels = [fig1_program.block_by_uid(u).label for u in first.blocks]
    assert labels == ["A", "B", "D"]
    assert first.ends_with_backward_branch
    assert signature_bits(first.signature) == "11"  # A taken, D taken

    second = table.path(occurrences[1])
    labels = [fig1_program.block_by_uid(u).label for u in second.blocks]
    assert labels == ["A", "C", "D", "exit"]
    assert not second.ends_with_backward_branch
    assert signature_bits(second.signature) == "00"


def test_fig1_paths_partition_flow(fig1_program):
    decisions = [True, True, False, True, True, True, False, False]
    occurrences, table = _run(fig1_program, decisions)
    total_blocks = sum(table.path(o).num_blocks for o in occurrences)
    # Walk independently to count block entries.
    events = walk_batch(fig1_program, ScriptedOracle(decisions), 10_000)
    block_entries = 1 + int((events.dst != -1).sum())
    assert total_blocks == block_entries


def test_forward_call_terminates_path_at_return(call_program):
    # entry -> loop(call helper) -> h0 taken -> h1 -> h3 ret -> post
    # not taken -> done halt.
    occurrences, table = _run(call_program, [True, False])
    paths = [table.path(o) for o in occurrences]
    labels = [
        [call_program.block_by_uid(u).label for u in p.blocks]
        for p in paths
    ]
    # Path 1: entry, loop, h0, h1, h3 — terminates at the return.  The
    # helper is laid out after main, so the return is address-backward
    # ("unless the call or return is a backward branch").
    assert labels[0] == ["entry", "loop", "h0", "h1", "h3"]
    assert paths[0].ends_with_backward_branch
    # Path 2 resumes at post.
    assert labels[1][0] == "post"


def test_signature_records_call_free_branches_only(call_program):
    occurrences, table = _run(call_program, [True, False])
    first = table.path(occurrences[0])
    # One conditional executed inside the path (h0); call/jump/fallthrough
    # contribute no bits.
    assert signature_bits(first.signature) == "1"


def test_max_blocks_forces_partition(fig1_program):
    # Loop forever-ish: 6 iterations, then exit.
    decisions = []
    for _ in range(6):
        decisions += [True, True]
    decisions += [False, False]
    occurrences_capped, table_capped = _run(
        fig1_program, decisions, max_blocks=4
    )
    occurrences_free, _ = _run(fig1_program, decisions, max_blocks=None)
    # The cap may only increase the number of segments.
    assert len(occurrences_capped) >= len(occurrences_free)
    # Partition invariant still holds.
    total = sum(table_capped.path(o).num_blocks for o in occurrences_capped)
    events = walk_batch(fig1_program, ScriptedOracle(decisions), 10_000)
    assert total == 1 + int((events.dst != -1).sum())


def test_extractor_rejects_mismatched_events(fig1_program):
    extractor = PathExtractor(fig1_program)
    bogus = EventBatch([99], [0], [CODE_JUMP], [False])
    with pytest.raises(TraceError):
        extractor.extract_batch_ids(bogus)


def test_extractor_max_blocks_validation(fig1_program):
    with pytest.raises(TraceError):
        PathExtractor(fig1_program, max_blocks=0)


def test_same_paths_intern_to_same_ids(fig1_program):
    decisions = [True, True, True, True, False, False]
    occurrences, _ = _run(fig1_program, decisions)
    # Two identical loop iterations -> same path id twice.
    assert occurrences[0] == occurrences[1]
