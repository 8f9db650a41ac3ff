"""Whole-program control-flow graphs.

A :class:`Program` owns a set of procedures, lays them out in a flat address
space (one address unit per instruction), resolves symbolic labels to block
uids, derives the full edge set, and answers the address-direction queries
("is this branch backward?", "which blocks are potential path heads?") that
the NET scheme and the path extractor are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.block import BasicBlock, BranchKind
from repro.cfg.edge import Edge, EdgeKind
from repro.cfg.procedure import Procedure
from repro.errors import CFGError


@dataclass
class Program:
    """A finalized multi-procedure control-flow graph.

    Construct programs through :class:`repro.cfg.builder.ProgramBuilder`
    (or the generators in :mod:`repro.cfg.generators`); the builder calls
    :meth:`finalize` which assigns uids and addresses, resolves labels and
    computes the edge set.  A finalized program is immutable by convention.
    """

    procedures: dict[str, Procedure] = field(default_factory=dict)
    entry_proc: str = "main"
    name: str = "program"

    def __post_init__(self) -> None:
        self._blocks_by_uid: list[BasicBlock] = []
        self._edges: list[Edge] = []
        self._edges_by_src: dict[int, list[Edge]] = {}
        self._call_sites: dict[str, list[BasicBlock]] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_procedure(self, proc: Procedure) -> Procedure:
        """Register ``proc``; names must be unique and the program not final."""
        if self._finalized:
            raise CFGError("cannot add procedures to a finalized program")
        if proc.name in self.procedures:
            raise CFGError(f"duplicate procedure {proc.name!r}")
        self.procedures[proc.name] = proc
        return proc

    def finalize(self) -> "Program":
        """Assign uids/addresses, resolve labels, and derive edges.

        Procedures are laid out in insertion order, the entry procedure
        first; blocks keep their procedure-local layout order.  Returns
        ``self`` for chaining.
        """
        if self._finalized:
            return self
        if self.entry_proc not in self.procedures:
            raise CFGError(
                f"entry procedure {self.entry_proc!r} is not defined"
            )
        ordered = [self.procedures[self.entry_proc]]
        ordered.extend(
            proc
            for name, proc in self.procedures.items()
            if name != self.entry_proc
        )

        uid = 0
        address = 0
        for proc in ordered:
            if not proc.blocks:
                raise CFGError(f"procedure {proc.name!r} has no blocks")
            for block in proc.blocks:
                block.uid = uid
                block.address = address
                self._blocks_by_uid.append(block)
                uid += 1
                address += block.size

        for proc in ordered:
            for block in proc.blocks:
                self._resolve_block(proc, block)

        self._collect_call_sites()
        self._derive_edges()
        self._finalized = True
        return self

    def _resolve_block(self, proc: Procedure, block: BasicBlock) -> None:
        """Resolve a block's symbolic labels to uids."""
        term = block.terminator
        if term.kind is BranchKind.COND:
            block.taken_uid = proc.block(term.taken_label).uid
            block.fallthrough_uid = proc.block(term.fallthrough_label).uid
        elif term.kind is BranchKind.JUMP:
            block.taken_uid = proc.block(term.taken_label).uid
        elif term.kind is BranchKind.INDIRECT:
            block.target_uids = tuple(
                proc.block(label).uid for label in term.targets
            )
        elif term.kind is BranchKind.CALL:
            callee = self._callee(term.callee)
            block.taken_uid = callee.entry.uid
            block.fallthrough_uid = proc.block(term.fallthrough_label).uid
        elif term.kind is BranchKind.ICALL:
            block.target_uids = tuple(
                self._callee(name).entry.uid for name in term.callees
            )
            block.fallthrough_uid = proc.block(term.fallthrough_label).uid
        elif term.kind is BranchKind.FALLTHROUGH:
            block.fallthrough_uid = proc.block(term.fallthrough_label).uid
        # RETURN and HALT have no static operands.

    def _callee(self, name: str | None) -> Procedure:
        if name is None or name not in self.procedures:
            raise CFGError(f"call to undefined procedure {name!r}")
        return self.procedures[name]

    def _collect_call_sites(self) -> None:
        """Map each procedure name to the blocks that may call it."""
        for block in self._blocks_by_uid:
            term = block.terminator
            if term.kind is BranchKind.CALL:
                self._call_sites.setdefault(term.callee, []).append(block)
            elif term.kind is BranchKind.ICALL:
                for callee in term.callees:
                    self._call_sites.setdefault(callee, []).append(block)

    def _derive_edges(self) -> None:
        for block in self._blocks_by_uid:
            for edge in self._edges_of(block):
                self._edges.append(edge)
                self._edges_by_src.setdefault(edge.src, []).append(edge)

    def _edges_of(self, block: BasicBlock) -> list[Edge]:
        term = block.terminator
        src_addr = block.branch_address
        edges: list[Edge] = []

        def backward(dst: BasicBlock) -> bool:
            return dst.address <= src_addr

        def cross(dst: BasicBlock) -> bool:
            return dst.proc_name != block.proc_name

        if term.kind is BranchKind.COND:
            taken = self.block_by_uid(block.taken_uid)
            fallthrough = self.block_by_uid(block.fallthrough_uid)
            edges.append(
                Edge(block.uid, taken.uid, EdgeKind.TAKEN, backward(taken))
            )
            edges.append(
                Edge(
                    block.uid,
                    fallthrough.uid,
                    EdgeKind.FALLTHROUGH,
                    False,
                )
            )
        elif term.kind is BranchKind.JUMP:
            taken = self.block_by_uid(block.taken_uid)
            edges.append(
                Edge(block.uid, taken.uid, EdgeKind.JUMP, backward(taken))
            )
        elif term.kind is BranchKind.INDIRECT:
            for dst_uid in block.target_uids:
                dst = self.block_by_uid(dst_uid)
                edges.append(
                    Edge(block.uid, dst.uid, EdgeKind.INDIRECT, backward(dst))
                )
        elif term.kind in (BranchKind.CALL, BranchKind.ICALL):
            callee_uids = (
                (block.taken_uid,)
                if term.kind is BranchKind.CALL
                else block.target_uids
            )
            for dst_uid in callee_uids:
                dst = self.block_by_uid(dst_uid)
                edges.append(
                    Edge(
                        block.uid,
                        dst.uid,
                        EdgeKind.CALL,
                        backward(dst),
                        interprocedural=cross(dst),
                    )
                )
        elif term.kind is BranchKind.FALLTHROUGH:
            dst = self.block_by_uid(block.fallthrough_uid)
            edges.append(
                Edge(block.uid, dst.uid, EdgeKind.STRAIGHT, False)
            )
        elif term.kind is BranchKind.RETURN:
            for call_site in self._call_sites.get(block.proc_name, []):
                dst = self.block_by_uid(call_site.fallthrough_uid)
                edges.append(
                    Edge(
                        block.uid,
                        dst.uid,
                        EdgeKind.RETURN,
                        dst.address <= src_addr,
                        interprocedural=cross(dst),
                    )
                )
        # HALT produces no edges.
        return edges

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _require_finalized(self) -> None:
        if not self._finalized:
            raise CFGError("program is not finalized; call finalize() first")

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has run."""
        return self._finalized

    @property
    def blocks(self) -> list[BasicBlock]:
        """All blocks in address order."""
        self._require_finalized()
        return list(self._blocks_by_uid)

    @property
    def num_blocks(self) -> int:
        """Total number of basic blocks."""
        self._require_finalized()
        return len(self._blocks_by_uid)

    @property
    def num_instructions(self) -> int:
        """Total number of instruction slots in the layout."""
        self._require_finalized()
        return sum(block.size for block in self._blocks_by_uid)

    @property
    def entry_block(self) -> BasicBlock:
        """Entry block of the entry procedure."""
        self._require_finalized()
        return self.procedures[self.entry_proc].entry

    def block_by_uid(self, uid: int | None) -> BasicBlock:
        """Look a block up by uid."""
        if uid is None or not 0 <= uid < len(self._blocks_by_uid):
            raise CFGError(f"no block with uid {uid!r}")
        return self._blocks_by_uid[uid]

    @property
    def edges(self) -> list[Edge]:
        """Every control-flow edge, including call and return edges."""
        self._require_finalized()
        return list(self._edges)

    def out_edges(self, uid: int) -> list[Edge]:
        """Edges leaving the block with ``uid``."""
        self._require_finalized()
        return list(self._edges_by_src.get(uid, []))

    def backward_branch_targets(self) -> set[int]:
        """Uids of blocks that are targets of some backward edge.

        These are the *potential path heads* of the NET scheme — the only
        program points where NET maintains an execution counter (paper
        §4.1/§4.2).
        """
        self._require_finalized()
        return {edge.dst for edge in self._edges if edge.backward}

    def describe(self) -> str:
        """One-line structural summary, for logs and reports."""
        self._require_finalized()
        return (
            f"{self.name}: {len(self.procedures)} procedures, "
            f"{self.num_blocks} blocks, {self.num_instructions} instructions, "
            f"{len(self._edges)} edges, "
            f"{len(self.backward_branch_targets())} backward-branch targets"
        )

