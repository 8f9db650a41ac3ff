"""Builder and Program tests: layout, resolution, edges, direction."""

import pytest

from repro.cfg import BranchKind, EdgeKind, ProgramBuilder
from repro.errors import CFGError, CFGValidationError
from tests.conftest import block_at


def test_fig1_layout_addresses(fig1_program):
    blocks = fig1_program.blocks
    assert [b.label for b in blocks] == ["A", "B", "C", "D", "exit"]
    assert blocks[0].address == 0
    assert blocks[1].address == 3  # after A (size 3)
    assert fig1_program.num_instructions == 13


def test_fig1_backward_branch_targets(fig1_program):
    heads = fig1_program.backward_branch_targets()
    a_uid = fig1_program.procedures["main"].block("A").uid
    assert heads == {a_uid}


def test_fig1_edges(fig1_program):
    main = fig1_program.procedures["main"]
    d = main.block("D")
    kinds = {
        (edge.kind, edge.backward) for edge in fig1_program.out_edges(d.uid)
    }
    assert (EdgeKind.TAKEN, True) in kinds  # D -> A is backward
    assert (EdgeKind.FALLTHROUGH, False) in kinds


def test_duplicate_label_rejected():
    builder = ProgramBuilder()
    proc = builder.procedure("main")
    proc.block("x", size=1).halt()
    with pytest.raises(CFGError):
        proc.block("x", size=1).halt()


def test_unterminated_block_rejected():
    builder = ProgramBuilder()
    proc = builder.procedure("main")
    proc.block("x", size=1)  # never terminated
    with pytest.raises(CFGError):
        builder.build()


def test_unknown_target_rejected():
    builder = ProgramBuilder()
    builder.procedure("main").block("x", size=1).jump("nowhere")
    with pytest.raises(CFGError):
        builder.build()


def test_call_to_unknown_procedure_rejected():
    builder = ProgramBuilder()
    main = builder.procedure("main")
    main.block("x", size=1).call("ghost", then="y")
    main.block("y", size=1).halt()
    with pytest.raises(CFGError):
        builder.build()


def test_unreachable_block_fails_validation():
    builder = ProgramBuilder()
    main = builder.procedure("main")
    main.block("a", size=1).halt()
    main.block("orphan", size=1).halt()
    with pytest.raises(CFGValidationError) as excinfo:
        builder.build()
    assert any("orphan" in finding for finding in excinfo.value.findings)


def test_program_without_halt_fails_validation():
    builder = ProgramBuilder()
    main = builder.procedure("main")
    main.block("a", size=1).jump("a")
    with pytest.raises(CFGValidationError):
        builder.build()


def test_call_and_return_edges(call_program):
    helper_ret = call_program.procedures["helper"].block("h3")
    returns = [
        edge
        for edge in call_program.out_edges(helper_ret.uid)
        if edge.kind is EdgeKind.RETURN
    ]
    assert len(returns) == 1
    post = call_program.procedures["main"].block("post")
    assert returns[0].dst == post.uid
    assert returns[0].interprocedural


def test_entry_block_is_main_entry(call_program):
    assert call_program.entry_block.proc_name == "main"
    assert call_program.entry_block.address == 0


def test_block_at_and_block_by_uid(fig1_program):
    a = block_at(fig1_program, 0)
    assert a.label == "A"
    assert fig1_program.block_by_uid(a.uid) is a
    with pytest.raises(CFGError):
        block_at(fig1_program, 1)  # inside A, not a block start
    with pytest.raises(CFGError):
        fig1_program.block_by_uid(999)


def test_describe_mentions_counts(fig1_program):
    text = fig1_program.describe()
    assert "5 blocks" in text and "13 instructions" in text


def test_terminator_kind_shorthand(fig1_program):
    main = fig1_program.procedures["main"]
    assert main.block("A").kind is BranchKind.COND
    assert main.block("exit").kind is BranchKind.HALT
