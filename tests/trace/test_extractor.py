"""Path extraction against the paper's §3 path definition."""

import pytest

from repro.errors import TraceError
from repro.trace import EventBatch, PathExtractor, record_path_trace
from repro.trace.batch import (
    CODE_CALL,
    CODE_FALLTHROUGH,
    CODE_JUMP,
    CODE_RETURN,
    CODE_TAKEN,
    HALT_DST,
)
from tests.conftest import signature_bits, walk_batch
from tests.trace.event_oracle import ScriptedOracle, segment_paths


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


# ----------------------------------------------------------------------
# The segment memo's key
# ----------------------------------------------------------------------
# fig1's block uids: A=0, B=1, C=2, D=3, exit=4.  The columns below are
# written by hand (the extractor checks only that each event leaves the
# block the previous one entered), so two segments can share their
# ``dst`` bytes and differ in exactly one other thing.  A memo key that
# dropped the start uid or a kind code would hand the second segment
# the first one's id.  The ending enters no signature, so segments that
# differ only there share an id, and the table keeps the path of the
# first: its blocks and its ``ends_with_backward_branch``.
_A, _C, _D = 0, 2, 3
_J, _T, _F = CODE_JUMP, CODE_TAKEN, CODE_FALLTHROUGH


def _events(start, steps):
    """A batch of ``(dst, kind, backward)`` steps leaving ``start``."""
    src = [start] + [dst for dst, _, _ in steps[:-1]]
    return EventBatch(
        src,
        [dst for dst, _, _ in steps],
        [kind for _, kind, _ in steps],
        [backward for _, _, backward in steps],
    )


def _assert_matches_segmenter(program, events, max_blocks, splits=()):
    """The stream fed in pieces cut at ``splits`` interns the paths the
    one-event-at-a-time segmenter gives, in its order."""
    scalar = segment_paths(program, events, max_blocks=max_blocks)
    extractor = PathExtractor(program, max_blocks=max_blocks)
    stream = extractor.stream()
    ids = []
    bounds = [0, *splits, len(events)]
    for start, stop in zip(bounds, bounds[1:]):
        ids.extend(stream.feed(events.slice(start, stop)))
    ids.extend(stream.finish())
    assert ids == scalar.path_ids.tolist()
    assert list(extractor.table) == list(scalar.table)
    return ids


#: name -> (steps from A, max_blocks, whether the second and third
#: occurrences, which share their dst bytes, are different paths).
_MEMO_CASES = {
    # A -> C -> D, then D -> C -> D: only the start uid differs.
    "start_uid": (
        [(_A, _J, True), (_C, _J, False), (_D, _J, True), (_C, _J, False),
         (_D, _J, True), (HALT_DST, _J, False)],
        256,
        True,
    ),
    # D -> C -> D twice, leaving D taken once and falling through once.
    "first_kind": (
        [(_D, _J, True), (_C, _T, False), (_D, _J, True),
         (_C, _F, False), (_D, _J, True)],
        256,
        True,
    ),
    # D -> C -> D twice, closed by a taken branch once and a jump once.
    "last_kind": (
        [(_D, _J, True), (_C, _J, False), (_D, _T, True),
         (_C, _J, False), (_D, _J, True)],
        256,
        True,
    ),
    # A call from D returns to D: backward, then forward (a forward
    # return closes the call made inside the path).
    "backward_then_return_cut": (
        [(_D, _J, True), (_C, CODE_CALL, False), (_D, CODE_RETURN, True),
         (_C, CODE_CALL, False), (_D, CODE_RETURN, False)],
        256,
        False,
    ),
    "return_then_backward_cut": (
        [(_D, _J, True), (_C, CODE_CALL, False), (_D, CODE_RETURN, False),
         (_C, CODE_CALL, False), (_D, CODE_RETURN, True)],
        256,
        False,
    ),
    # D -> C -> D ending backward, and cut at two blocks.
    "backward_then_length_cut": (
        [(_D, _J, True), (_C, _J, False), (_D, _J, True),
         (_C, _J, False), (_D, _J, False)],
        2,
        False,
    ),
    "length_then_backward_cut": (
        [(_D, _J, True), (_C, _J, False), (_D, _J, False),
         (_C, _J, False), (_D, _J, True)],
        2,
        False,
    ),
    # D -> C -> D ending backward, then the same events left open.
    "cut_then_tail": (
        [(_D, _J, True), (_C, _J, False), (_D, _J, True),
         (_C, _J, False), (_D, _J, False)],
        256,
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(_MEMO_CASES))
def test_segments_sharing_dst_bytes_intern_the_segmenters_paths(
    fig1_program, case
):
    steps, max_blocks, distinct = _MEMO_CASES[case]
    events = _events(_A, steps)
    ids = _assert_matches_segmenter(fig1_program, events, max_blocks)
    assert (ids[1] != ids[2]) == distinct
    # One event per batch: the second segment meets the first one's
    # memo entry after batch boundaries, from carried events.
    _assert_matches_segmenter(
        fig1_program, events, max_blocks, splits=range(1, len(events))
    )


def test_segment_carried_across_three_batches_hits_its_memo_entry(
    fig1_program,
):
    # A -> D backward, then D -> C -> D -> C -> D twice, each closed by
    # a backward jump: first inside one batch, then open across three
    # batch boundaries (events 5 | 6 | 7 | 8).
    loop = [(_C, _T, False), (_D, _J, False), (_C, _F, False),
            (_D, _J, True)]
    events = _events(_A, [(_D, _J, True)] + loop + loop)
    ids = _assert_matches_segmenter(
        fig1_program, events, 256, splits=(6, 7, 8)
    )
    assert len(ids) == 4
    assert ids[1] == ids[2] != ids[0]


def test_open_tail_keeps_its_last_target(fig1_program):
    # A -> C -> D, never cut: unlike a cut segment, whose last target
    # opens the next one, the tail's path ends at D.
    events = _events(_A, [(_C, _J, False), (_D, _J, False)])
    for splits in ((), (1,)):
        _assert_matches_segmenter(fig1_program, events, 256, splits)
