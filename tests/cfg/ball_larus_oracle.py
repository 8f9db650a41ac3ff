"""Encode, decode and chord-sum references for Ball–Larus numberings.

The profiler only ever adds chord increments; these walks over a
:class:`~repro.cfg.BallLarusNumbering` are what the tests hold the
numbering to: every path id decodes to an entry→exit node sequence,
that sequence encodes back to the same id, and the chord increments
along it sum to the id too.
"""

from __future__ import annotations

from repro.cfg.spanning_tree import BallLarusNumbering, DagEdge
from repro.errors import CFGError


def edges_from(numbering: BallLarusNumbering, node: int) -> list[DagEdge]:
    """Outgoing DAG edges of ``node`` in val order."""
    return sorted(
        (edge for edge in numbering.edges if edge.src == node),
        key=lambda edge: edge.val,
    )


def path_id(numbering: BallLarusNumbering, nodes: list[int]) -> int:
    """Encode an entry→exit node sequence as its unique path id.

    ``nodes`` must start at the virtual entry and end at the virtual
    exit; consecutive nodes must be joined by a DAG edge.  When several
    parallel edges join a pair of nodes the minimal-``val`` edge is
    used (the builders never produce parallel edges from distinct CFG
    edges between the same pair).
    """
    if not nodes or nodes[0] != numbering.virtual_entry:
        raise CFGError("path must start at the virtual entry")
    if nodes[-1] != numbering.virtual_exit:
        raise CFGError("path must end at the virtual exit")
    total = 0
    for src, dst in zip(nodes, nodes[1:]):
        candidates = [
            edge
            for edge in numbering.edges
            if edge.src == src and edge.dst == dst
        ]
        if not candidates:
            raise CFGError(f"no DAG edge {src} → {dst}")
        total += min(candidates, key=lambda edge: edge.val).val
    if not 0 <= total < numbering.num_paths:
        raise CFGError(
            f"encoded id {total} outside [0, {numbering.num_paths})"
        )
    return total


def decode(numbering: BallLarusNumbering, pid: int) -> list[int]:
    """Decode path id ``pid`` back to its entry→exit node sequence.

    The classic greedy walk: at each node take the outgoing edge with
    the largest ``val`` not exceeding the remaining id.
    """
    if not 0 <= pid < numbering.num_paths:
        raise CFGError(f"path id {pid} outside [0, {numbering.num_paths})")
    remaining = pid
    node = numbering.virtual_entry
    sequence = [node]
    while node != numbering.virtual_exit:
        outgoing = edges_from(numbering, node)
        if not outgoing:
            raise CFGError(f"dead end at DAG node {node}")
        chosen = None
        for edge in outgoing:
            if edge.val <= remaining:
                chosen = edge
            else:
                break
        if chosen is None:
            raise CFGError(f"no edge with val <= {remaining} at node {node}")
        remaining -= chosen.val
        node = chosen.dst
        sequence.append(node)
    if remaining != 0:
        raise CFGError(f"decode left a residue of {remaining}")
    return sequence


def chord_sum(numbering: BallLarusNumbering, nodes: list[int]) -> int:
    """Sum the chord increments along an entry→exit node sequence.

    This is what the instrumented program computes at run time; it
    must equal :func:`path_id` for every path.
    """
    chords = set(numbering.chord_indices)
    total = 0
    for src, dst in zip(nodes, nodes[1:]):
        for edge in numbering.edges:
            if edge.src == src and edge.dst == dst:
                if edge.index in chords:
                    total += numbering.increments[edge.index]
                break
    return total


def decode_blocks(
    numberings: dict[str, BallLarusNumbering], key: tuple[str, int]
) -> list[int]:
    """Block uids of the profiled path ``(procedure, path_id)``, with
    the virtual entry and exit nodes stripped."""
    proc_name, pid = key
    numbering = numberings[proc_name]
    return [
        uid
        for uid in decode(numbering, pid)
        if uid not in (numbering.virtual_entry, numbering.virtual_exit)
    ]
