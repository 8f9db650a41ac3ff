"""Classic intraprocedural CFG analyses.

These back the Ball–Larus instrumentation planner (which needs the acyclic
forward-path DAG of each procedure) and the workload generators (which need
loop structure to place path heads deliberately).

All analyses work on the *intraprocedural* graph of one procedure: call
terminators are treated as falling through to their continuation block
(standard practice for intraprocedural path profiling, and what Ball–Larus
assume), and return/halt blocks are sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.block import BranchKind
from repro.cfg.procedure import Procedure
from repro.cfg.program import Program
from repro.errors import CFGError


def intraprocedural_successors(
    program: Program, proc: Procedure
) -> dict[int, list[int]]:
    """Successor map over one procedure's blocks (uid → uids).

    Call blocks step to their continuation; interprocedural edges are not
    followed.  Successor lists preserve a deterministic order (taken edge
    first) so downstream numbering is stable.
    """
    succs: dict[int, list[int]] = {block.uid: [] for block in proc.blocks}
    local = set(succs)
    for block in proc.blocks:
        term = block.terminator
        if term.kind is BranchKind.COND:
            succs[block.uid] = [block.taken_uid, block.fallthrough_uid]
        elif term.kind is BranchKind.JUMP:
            succs[block.uid] = [block.taken_uid]
        elif term.kind is BranchKind.INDIRECT:
            succs[block.uid] = [
                uid for uid in block.target_uids if uid in local
            ]
        elif term.kind in (BranchKind.CALL, BranchKind.ICALL):
            succs[block.uid] = [block.fallthrough_uid]
        elif term.kind is BranchKind.FALLTHROUGH:
            succs[block.uid] = [block.fallthrough_uid]
        # RETURN / HALT are sinks intraprocedurally.
    for uid, targets in succs.items():
        succs[uid] = [t for t in targets if t in local]
    return succs


def reverse_graph(succs: dict[int, list[int]]) -> dict[int, list[int]]:
    """Predecessor map for a successor map."""
    preds: dict[int, list[int]] = {uid: [] for uid in succs}
    for src, targets in succs.items():
        for dst in targets:
            preds[dst].append(src)
    return preds


def reachable_from(entry: int, succs: dict[int, list[int]]) -> set[int]:
    """Nodes reachable from ``entry`` in ``succs``."""
    seen: set[int] = set()
    stack = [entry]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(succs.get(node, []))
    return seen


def compute_dominators(
    entry: int, succs: dict[int, list[int]]
) -> dict[int, set[int]]:
    """Dominator sets by iterative dataflow.

    ``dom[n]`` contains every node that dominates ``n`` (including ``n``).
    Unreachable nodes are excluded from the result.
    """
    reachable = reachable_from(entry, succs)
    preds = reverse_graph(succs)
    dom: dict[int, set[int]] = {entry: {entry}}
    for node in reachable - {entry}:
        dom[node] = set(reachable)

    changed = True
    while changed:
        changed = False
        for node in reachable - {entry}:
            incoming = [
                dom[p] for p in preds.get(node, []) if p in reachable
            ]
            if incoming:
                new = set.intersection(*incoming) | {node}
            else:
                new = {node}
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


@dataclass
class NaturalLoop:
    """A natural loop: header plus body, discovered from a back edge."""

    header: int
    body: set[int] = field(default_factory=set)
    back_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of blocks in the loop, including the header."""
        return len(self.body)


@dataclass
class LoopForest:
    """All natural loops of one procedure, with nesting depths."""

    loops: list[NaturalLoop]
    depth: dict[int, int]

    @property
    def headers(self) -> set[int]:
        """Uids of every loop header."""
        return {loop.header for loop in self.loops}

    def max_depth(self) -> int:
        """Deepest nesting level in the procedure (0 if loop-free)."""
        return max(self.depth.values(), default=0)


def dominator_back_edges(
    entry: int, succs: dict[int, list[int]]
) -> list[tuple[int, int]]:
    """Edges ``u → v`` where ``v`` dominates ``u`` — the loop back edges."""
    dom = compute_dominators(entry, succs)
    edges = []
    for src, targets in succs.items():
        if src not in dom:
            continue
        for dst in targets:
            if dst in dom.get(src, set()):
                edges.append((src, dst))
    return edges


def natural_loops(entry: int, succs: dict[int, list[int]]) -> LoopForest:
    """Discover natural loops and per-block nesting depth.

    Loops sharing a header are merged (the standard convention).  Depth of a
    block is the number of distinct loop bodies containing it.
    """
    preds = reverse_graph(succs)
    by_header: dict[int, NaturalLoop] = {}
    for src, dst in dominator_back_edges(entry, succs):
        loop = by_header.setdefault(dst, NaturalLoop(header=dst, body={dst}))
        loop.back_edges.append((src, dst))
        # Walk predecessors from the back-edge source up to the header.
        stack = [src]
        while stack:
            node = stack.pop()
            if node in loop.body:
                continue
            loop.body.add(node)
            stack.extend(preds.get(node, []))

    loops = sorted(by_header.values(), key=lambda l: (l.size, l.header))
    depth = {uid: 0 for uid in succs}
    for loop in loops:
        for uid in loop.body:
            depth[uid] += 1
    return LoopForest(loops=loops, depth=depth)


def procedure_loops(program: Program, proc_name: str) -> LoopForest:
    """Convenience wrapper: natural loops of one named procedure."""
    if proc_name not in program.procedures:
        raise CFGError(f"no procedure named {proc_name!r}")
    proc = program.procedures[proc_name]
    succs = intraprocedural_successors(program, proc)
    return natural_loops(proc.entry.uid, succs)


def acyclic_forward_dag(
    program: Program, proc: Procedure
) -> tuple[dict[int, list[int]], int, int]:
    """The Ball–Larus DAG of a procedure: (successors, entry, exit).

    Back edges (dominator-based) are removed and replaced per Ball–Larus:
    a back edge ``u → v`` contributes surrogate edges ``ENTRY → v`` and
    ``u → EXIT`` so paths ending at a backward branch and paths starting at
    its target are both representable.  Every sink (return/halt or
    back-edge source) is connected to the synthetic exit, and the synthetic
    entry is connected to the procedure entry.

    The synthetic entry and exit reuse uids ``-1`` and ``-2`` which never
    collide with real blocks.
    """
    succs = intraprocedural_successors(program, proc)
    entry_uid = proc.entry.uid
    back = set(dominator_back_edges(entry_uid, succs))

    dag: dict[int, list[int]] = {uid: [] for uid in succs}
    virtual_entry, virtual_exit = -1, -2
    dag[virtual_entry] = [entry_uid]
    dag[virtual_exit] = []

    extra_entry_targets: list[int] = []
    for src, targets in succs.items():
        for dst in targets:
            if (src, dst) in back:
                if dst not in extra_entry_targets:
                    extra_entry_targets.append(dst)
                if virtual_exit not in dag[src]:
                    dag[src].append(virtual_exit)
            else:
                dag[src].append(dst)
    for dst in extra_entry_targets:
        if dst not in dag[virtual_entry]:
            dag[virtual_entry].append(dst)

    # Sinks (no outgoing DAG edges) flow to the synthetic exit.
    for uid in list(dag):
        if uid in (virtual_entry, virtual_exit):
            continue
        if not dag[uid]:
            dag[uid] = [virtual_exit]
    return dag, virtual_entry, virtual_exit


def topological_order(dag: dict[int, list[int]], entry: int) -> list[int]:
    """Topological order of the sub-DAG reachable from ``entry``.

    Raises :class:`CFGError` if a cycle is reachable (the input was not a
    DAG).
    """
    order: list[int] = []
    state: dict[int, int] = {}  # 0 = in progress, 1 = done

    def visit(node: int) -> None:
        stack = [(node, iter(dag.get(node, [])))]
        state[node] = 0
        while stack:
            current, it = stack[-1]
            advanced = False
            for succ in it:
                if state.get(succ) == 0:
                    raise CFGError("graph contains a cycle; expected a DAG")
                if succ not in state:
                    state[succ] = 0
                    stack.append((succ, iter(dag.get(succ, []))))
                    advanced = True
                    break
            if not advanced:
                state[current] = 1
                order.append(current)
                stack.pop()

    visit(entry)
    order.reverse()
    return order

