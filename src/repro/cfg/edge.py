"""Control-flow edges.

Edges are derived from block terminators when a program is finalized.  They
carry the information the profiling and prediction subsystems care about:
whether the edge is *taken* (for history bits), whether it is *backward*
(for path-head discovery), and whether it crosses a procedure boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EdgeKind(enum.Enum):
    """How control flows along an edge."""

    #: Taken side of a conditional branch.
    TAKEN = "taken"
    #: Fall-through side of a conditional branch.
    FALLTHROUGH = "fallthrough"
    #: Straight-line continuation: an explicit fall-through terminator or
    #: a block split by a label.  Not a branch — contributes no history
    #: bit and is never backward.
    STRAIGHT = "straight"
    #: Unconditional direct jump.
    JUMP = "jump"
    #: One resolved target of an indirect jump.
    INDIRECT = "indirect"
    #: Call edge into a procedure entry.
    CALL = "call"
    #: Return edge back to a call continuation.
    RETURN = "return"


@dataclass(frozen=True)
class Edge:
    """A directed control-flow edge between two blocks.

    ``src`` and ``dst`` are block uids.  ``backward`` is the address-based
    direction used throughout the paper: the edge is backward when the
    target's address does not exceed the branch instruction's address.
    """

    src: int
    dst: int
    kind: EdgeKind
    backward: bool
    interprocedural: bool = False
