"""Procedures: named, single-entry collections of basic blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.block import BasicBlock
from repro.errors import CFGError


@dataclass
class Procedure:
    """A procedure is a list of basic blocks in layout order.

    The first block in ``blocks`` is the procedure entry.  Labels are
    unique within the procedure; layout order determines addresses and,
    therefore, which branches are backward.
    """

    name: str
    blocks: list[BasicBlock] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise CFGError("procedure name must be non-empty")

    @property
    def entry(self) -> BasicBlock:
        """The entry block (the first block in layout order)."""
        if not self.blocks:
            raise CFGError(f"procedure {self.name!r} has no blocks")
        return self.blocks[0]

    def add(self, block: BasicBlock) -> BasicBlock:
        """Append ``block`` to the layout, enforcing label uniqueness."""
        if block.proc_name != self.name:
            raise CFGError(
                f"block {block.label!r} belongs to {block.proc_name!r}, "
                f"not {self.name!r}"
            )
        if block.label in self._labels():
            raise CFGError(
                f"duplicate label {block.label!r} in procedure {self.name!r}"
            )
        self.blocks.append(block)
        return block

    def block(self, label: str) -> BasicBlock:
        """Return the block with ``label``; raise :class:`CFGError` if absent."""
        for candidate in self.blocks:
            if candidate.label == label:
                return candidate
        raise CFGError(f"no block labelled {label!r} in procedure {self.name!r}")

    def _labels(self) -> set[str]:
        return {block.label for block in self.blocks}

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)
