"""Unit tests for blocks and terminators."""

import pytest

from repro.cfg.block import BasicBlock, BranchKind, Terminator
from repro.errors import CFGError


def test_cond_terminator_requires_both_labels():
    with pytest.raises(CFGError):
        Terminator(BranchKind.COND, taken_label="x")


def test_jump_terminator_requires_target():
    with pytest.raises(CFGError):
        Terminator(BranchKind.JUMP)


def test_indirect_requires_targets():
    with pytest.raises(CFGError):
        Terminator(BranchKind.INDIRECT, targets=())


def test_call_requires_callee_and_continuation():
    with pytest.raises(CFGError):
        Terminator(BranchKind.CALL, callee="f")
    term = Terminator(BranchKind.CALL, callee="f", fallthrough_label="next")
    assert term.callee == "f"


def test_return_and_halt_need_no_operands():
    assert Terminator(BranchKind.RETURN).kind is BranchKind.RETURN
    assert Terminator(BranchKind.HALT).kind is BranchKind.HALT


def test_block_size_must_be_positive():
    with pytest.raises(CFGError):
        BasicBlock(
            proc_name="p",
            label="b",
            size=0,
            terminator=Terminator(BranchKind.HALT),
        )


def test_block_addresses():
    block = BasicBlock(
        proc_name="p",
        label="b",
        size=4,
        terminator=Terminator(BranchKind.HALT),
    )
    block.address = 10
    assert block.branch_address == 13
