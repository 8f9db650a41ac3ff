"""Indirect calls (ICALL) through the builder and walker."""

import pytest

from repro.cfg import BranchKind, EdgeKind, ProgramBuilder
from repro.trace import CFGWalker, record_path_trace
from repro.trace.batch import CODE_CALL, CODE_RETURN
from tests.conftest import walk_batch
from tests.trace.event_oracle import ScriptedOracle


@pytest.fixture()
def icall_program():
    builder = ProgramBuilder("icalls")
    main = builder.procedure("main")
    main.block("entry", size=1).fallthrough("loop")
    main.block("loop", size=2).icall(("f", "g"), then="post")
    main.block("post", size=1).cond(taken="loop", fallthrough="done")
    main.block("done", size=1).halt()
    f = builder.procedure("f")
    f.block("f0", size=3).ret()
    g = builder.procedure("g")
    g.block("g0", size=5).ret()
    return builder.build()


def test_icall_terminator_resolution(icall_program):
    loop = icall_program.procedures["main"].block("loop")
    assert loop.terminator.kind is BranchKind.ICALL
    callees = {
        icall_program.block_by_uid(uid).proc_name
        for uid in loop.target_uids
    }
    assert callees == {"f", "g"}


def test_icall_edges_are_call_edges(icall_program):
    loop = icall_program.procedures["main"].block("loop")
    kinds = {e.kind for e in icall_program.out_edges(loop.uid)}
    assert EdgeKind.CALL in kinds


def test_walker_dispatches_icalls(icall_program):
    # Call f, loop again, call g, exit.
    decisions = [0, True, 1, False]
    events = walk_batch(icall_program, ScriptedOracle(decisions), 1000)
    call_targets = events.dst[events.kind == CODE_CALL].tolist()
    f0 = icall_program.procedures["f"].block("f0").uid
    g0 = icall_program.procedures["g"].block("g0").uid
    assert call_targets == [f0, g0]


def test_icall_paths_record_callee_blocks(icall_program):
    decisions = [0, True, 1, False]
    walker = CFGWalker(icall_program, ScriptedOracle(decisions))
    events = walker.walk_batched(1000)
    trace = record_path_trace(icall_program, events, name="icalls")
    all_blocks = {
        uid for path in trace.table for uid in path.blocks
    }
    f0 = icall_program.procedures["f"].block("f0").uid
    g0 = icall_program.procedures["g"].block("g0").uid
    assert f0 in all_blocks and g0 in all_blocks


def test_returns_from_icall_are_backward(icall_program):
    """Callees are laid out after main, so returns are backward taken
    branches and terminate paths per §3."""
    decisions = [0, False]
    events = walk_batch(icall_program, ScriptedOracle(decisions), 1000)
    returns = events.backward[events.kind == CODE_RETURN]
    assert returns.size and returns.all()
