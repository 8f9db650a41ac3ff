"""Basic blocks and branch terminators.

The control-flow model follows the paper's setting: a program is a set of
procedures, each a graph of basic blocks laid out at concrete addresses.
Every block ends in exactly one *terminator* (a control transfer).  Branch
direction (forward/backward) is defined by *addresses*, exactly as a binary
level system like Dynamo sees it: a branch is *backward* when its target
address is less than or equal to the address of the branch instruction
itself.  Targets of backward taken branches are the potential *path heads*
of the NET scheme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import CFGError


class BranchKind(enum.Enum):
    """Classification of a basic block's terminator."""

    #: Two-way conditional branch: ``taken`` target plus fall-through.
    COND = "cond"
    #: Unconditional direct jump.
    JUMP = "jump"
    #: Unconditional indirect jump (e.g. a switch table or computed goto).
    INDIRECT = "indirect"
    #: Direct procedure call; control returns to the fall-through block.
    CALL = "call"
    #: Indirect procedure call through a pointer; several possible callees.
    ICALL = "icall"
    #: Procedure return.
    RETURN = "return"
    #: No explicit branch: control falls through to the layout successor.
    FALLTHROUGH = "fallthrough"
    #: Program termination.
    HALT = "halt"


#: Terminator kinds whose target is chosen at run time.
INDIRECT_KINDS = frozenset({BranchKind.INDIRECT, BranchKind.ICALL})


@dataclass
class Terminator:
    """The control transfer ending a basic block.

    Which fields are meaningful depends on :attr:`kind`:

    ``COND``
        ``taken_label`` and ``fallthrough_label``.
    ``JUMP``
        ``taken_label``.
    ``INDIRECT``
        ``targets`` — the statically known set of possible target labels.
    ``CALL``
        ``callee`` (procedure name); control returns to
        ``fallthrough_label``.
    ``ICALL``
        ``callees`` (possible procedure names); returns to
        ``fallthrough_label``.
    ``RETURN`` / ``HALT``
        no operands.
    ``FALLTHROUGH``
        ``fallthrough_label`` (the layout successor).

    Labels are local to the owning procedure and resolved to
    :class:`BasicBlock` uids when the program is finalized.
    """

    kind: BranchKind
    taken_label: str | None = None
    fallthrough_label: str | None = None
    targets: tuple[str, ...] = ()
    callee: str | None = None
    callees: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        requirements = {
            BranchKind.COND: self.taken_label and self.fallthrough_label,
            BranchKind.JUMP: self.taken_label,
            BranchKind.INDIRECT: len(self.targets) > 0,
            BranchKind.CALL: self.callee and self.fallthrough_label,
            BranchKind.ICALL: len(self.callees) > 0 and self.fallthrough_label,
            BranchKind.RETURN: True,
            BranchKind.FALLTHROUGH: self.fallthrough_label,
            BranchKind.HALT: True,
        }
        if not requirements[self.kind]:
            raise CFGError(
                f"terminator of kind {self.kind.value!r} is missing operands"
            )

    @property
    def is_conditional(self) -> bool:
        """Whether the terminator contributes a history bit to a signature."""
        return self.kind is BranchKind.COND

    @property
    def is_indirect(self) -> bool:
        """Whether the terminator's target is chosen at run time."""
        return self.kind in INDIRECT_KINDS


@dataclass
class BasicBlock:
    """A straight-line code sequence ending in a single terminator.

    Attributes
    ----------
    uid:
        Program-global identifier, assigned at finalization.
    proc_name:
        Name of the owning procedure.
    label:
        Procedure-local label, unique within the procedure.
    size:
        Number of instructions in the block, including the terminator.
        Drives the Dynamo cost model and the per-path instruction counts.
    terminator:
        The control transfer ending the block.
    address:
        Start address of the block (one address unit per instruction),
        assigned at finalization.
    """

    proc_name: str
    label: str
    size: int
    terminator: Terminator
    uid: int = -1
    address: int = -1
    # Resolved successor uids, filled in by Program.finalize().
    taken_uid: int | None = field(default=None, repr=False)
    fallthrough_uid: int | None = field(default=None, repr=False)
    target_uids: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise CFGError(
                f"block {self.proc_name}.{self.label} must contain at least "
                f"one instruction, got size={self.size}"
            )

    @property
    def branch_address(self) -> int:
        """Address of the terminator instruction (the block's last slot)."""
        return self.address + self.size - 1

    @property
    def end_address(self) -> int:
        """First address past the block."""
        return self.address + self.size

    @property
    def kind(self) -> BranchKind:
        """Shorthand for the terminator kind."""
        return self.terminator.kind

    def key(self) -> tuple[str, str]:
        """The (procedure, label) pair identifying this block symbolically."""
        return (self.proc_name, self.label)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.proc_name}.{self.label}@{self.address}"
