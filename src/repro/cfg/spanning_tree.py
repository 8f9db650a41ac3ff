"""Ball–Larus path numbering and spanning-tree instrumentation planning.

Implements the offline machinery of Ball & Larus, *Efficient Path
Profiling* (MICRO-29, 1996), which the paper uses as the representative
"sophisticated" path profiling scheme:

1. each procedure's CFG is converted to an acyclic DAG of forward paths
   (back edges replaced by surrogate entry/exit edges);
2. every DAG edge receives an integer value ``val`` such that the sum of
   ``val`` along any entry→exit path is a unique path id in
   ``[0, num_paths)``;
3. a spanning tree of the DAG (augmented with a virtual exit→entry edge)
   determines the minimal set of *chord* edges that must be instrumented;
   each chord carries an increment ``inc`` such that summing ``inc`` over
   the chords on a path reproduces the path id.

The planner exposes exactly what the reproduction needs: unique path
numbering (for the offline profile), the number of instrumentation points
(for the overhead comparison of paper §4), and encode/decode helpers used
by tests to prove the numbering is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.analysis import acyclic_forward_dag, topological_order
from repro.cfg.procedure import Procedure
from repro.cfg.program import Program
from repro.errors import CFGError


@dataclass(frozen=True)
class DagEdge:
    """One directed edge of the Ball–Larus DAG, identified by ``index``."""

    index: int
    src: int
    dst: int
    val: int


@dataclass
class BallLarusNumbering:
    """The complete numbering and instrumentation plan for one procedure."""

    proc_name: str
    virtual_entry: int
    virtual_exit: int
    num_paths: int
    edges: list[DagEdge]
    #: ``num_paths`` per DAG node (1 at the virtual exit).
    num_paths_from: dict[int, int]
    #: Edge indices chosen as chords — the instrumented edges.
    chord_indices: list[int] = field(default_factory=list)
    #: Increment per chord index.
    increments: dict[int, int] = field(default_factory=dict)

    @property
    def num_instrumented_edges(self) -> int:
        """Number of edges that require an instrumentation point."""
        return len(self.chord_indices)

    @property
    def num_edges(self) -> int:
        """Total number of DAG edges (the unoptimized instrumentation cost)."""
        return len(self.edges)

    def edges_from(self, node: int) -> list[DagEdge]:
        """Outgoing DAG edges of ``node`` in val order."""
        return sorted(
            (edge for edge in self.edges if edge.src == node),
            key=lambda edge: edge.val,
        )

    def path_id(self, nodes: list[int]) -> int:
        """Encode an entry→exit node sequence as its unique path id.

        ``nodes`` must start at the virtual entry and end at the virtual
        exit; consecutive nodes must be joined by a DAG edge.  When several
        parallel edges join a pair of nodes the minimal-``val`` edge is
        used (parallel DAG edges represent distinct paths only when they
        arise from distinct CFG edges, which the reproduction's builders
        never produce between the same pair).
        """
        if not nodes or nodes[0] != self.virtual_entry:
            raise CFGError("path must start at the virtual entry")
        if nodes[-1] != self.virtual_exit:
            raise CFGError("path must end at the virtual exit")
        total = 0
        for src, dst in zip(nodes, nodes[1:]):
            candidates = [
                edge for edge in self.edges if edge.src == src and edge.dst == dst
            ]
            if not candidates:
                raise CFGError(f"no DAG edge {src} → {dst}")
            total += min(candidates, key=lambda edge: edge.val).val
        if not 0 <= total < self.num_paths:
            raise CFGError(
                f"encoded id {total} outside [0, {self.num_paths})"
            )
        return total

    def decode(self, path_id: int) -> list[int]:
        """Decode a path id back to its entry→exit node sequence.

        Uses the classic greedy walk: at each node take the outgoing edge
        with the largest ``val`` not exceeding the remaining id.
        """
        if not 0 <= path_id < self.num_paths:
            raise CFGError(
                f"path id {path_id} outside [0, {self.num_paths})"
            )
        remaining = path_id
        node = self.virtual_entry
        sequence = [node]
        while node != self.virtual_exit:
            outgoing = self.edges_from(node)
            if not outgoing:
                raise CFGError(f"dead end at DAG node {node}")
            chosen = None
            for edge in outgoing:
                if edge.val <= remaining:
                    chosen = edge
                else:
                    break
            if chosen is None:
                raise CFGError(
                    f"no edge with val <= {remaining} at node {node}"
                )
            remaining -= chosen.val
            node = chosen.dst
            sequence.append(node)
        if remaining != 0:
            raise CFGError(f"decode left a residue of {remaining}")
        return sequence

    def chord_sum(self, nodes: list[int]) -> int:
        """Sum the chord increments along an entry→exit node sequence.

        This is what the instrumented program would compute at run time;
        tests assert it equals :meth:`path_id` for every path.
        """
        chords = set(self.chord_indices)
        total = 0
        for src, dst in zip(nodes, nodes[1:]):
            for edge in self.edges:
                if edge.src == src and edge.dst == dst:
                    if edge.index in chords:
                        total += self.increments[edge.index]
                    break
        return total


def number_procedure(program: Program, proc: Procedure) -> BallLarusNumbering:
    """Run the full Ball–Larus pipeline for one procedure."""
    dag, virtual_entry, virtual_exit = acyclic_forward_dag(program, proc)
    order = topological_order(dag, virtual_entry)

    num_paths_from: dict[int, int] = {virtual_exit: 1}
    edges: list[DagEdge] = []
    for node in reversed(order):
        if node == virtual_exit:
            continue
        running = 0
        for succ in dag.get(node, []):
            edges.append(
                DagEdge(index=len(edges), src=node, dst=succ, val=running)
            )
            running += num_paths_from.get(succ, 0)
        num_paths_from[node] = running if running else 1

    numbering = BallLarusNumbering(
        proc_name=proc.name,
        virtual_entry=virtual_entry,
        virtual_exit=virtual_exit,
        num_paths=num_paths_from.get(virtual_entry, 1),
        edges=edges,
        num_paths_from=num_paths_from,
    )
    _plan_instrumentation(numbering)
    return numbering


def _plan_instrumentation(numbering: BallLarusNumbering) -> None:
    """Select chords via a spanning tree and derive their increments.

    The virtual exit→entry edge is forced into the tree so that path ids
    equal plain chord sums with a zero-initialized register (no constant
    offset).  Tree selection prefers high-traffic edges (approximated by
    the product of path counts through the edge), which minimizes the
    number of dynamic instrumentation events in expectation.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    # Adjacency of tree edges: node → list of (neighbor, edge, direction)
    # where direction is +1 when the edge points node → neighbor.
    tree_adj: dict[int, list[tuple[int, DagEdge, int]]] = {}

    def add_tree_edge(edge: DagEdge) -> None:
        tree_adj.setdefault(edge.src, []).append((edge.dst, edge, +1))
        tree_adj.setdefault(edge.dst, []).append((edge.src, edge, -1))

    # Force the virtual back edge exit→entry into the tree.
    virtual_edge = DagEdge(
        index=-1,
        src=numbering.virtual_exit,
        dst=numbering.virtual_entry,
        val=0,
    )
    union(numbering.virtual_exit, numbering.virtual_entry)
    add_tree_edge(virtual_edge)

    def weight(edge: DagEdge) -> int:
        src_paths = numbering.num_paths_from.get(edge.src, 1)
        dst_paths = numbering.num_paths_from.get(edge.dst, 1)
        return src_paths * dst_paths

    chords: list[DagEdge] = []
    for edge in sorted(numbering.edges, key=weight, reverse=True):
        if union(edge.src, edge.dst):
            add_tree_edge(edge)
        else:
            chords.append(edge)

    for chord in chords:
        numbering.chord_indices.append(chord.index)
        numbering.increments[chord.index] = chord.val + _tree_path_val(
            tree_adj, chord.dst, chord.src
        )


def _tree_path_val(
    tree_adj: dict[int, list[tuple[int, DagEdge, int]]],
    start: int,
    goal: int,
) -> int:
    """Signed sum of ``val`` along the unique tree path start → goal.

    Edges traversed along their direction contribute ``+val``; edges
    traversed against it contribute ``-val``.
    """
    if start == goal:
        return 0
    stack: list[tuple[int, int, int]] = [(start, -10**9, 0)]
    while stack:
        node, came_from, total = stack.pop()
        for neighbor, edge, direction in tree_adj.get(node, []):
            if neighbor == came_from:
                continue
            new_total = total + direction * edge.val
            if neighbor == goal:
                return new_total
            stack.append((neighbor, node, new_total))
    raise CFGError(f"no tree path from {start} to {goal}")


def number_program(program: Program) -> dict[str, BallLarusNumbering]:
    """Number every procedure of ``program``; keyed by procedure name."""
    return {
        name: number_procedure(program, proc)
        for name, proc in program.procedures.items()
    }
