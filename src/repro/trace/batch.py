"""Columnar branch-event batches: the event stream as numpy columns.

A program execution is viewed as the sequence of its control transfers.
One event records one transfer between two basic blocks, together with
the classification the path extractor needs: the edge kind
(taken/fall-through/jump/indirect/call/return) and whether the transfer
is *backward* in the address space.  Fall-through "transfers" of
conditional branches are explicit events (they carry the 0 history
bit); straight-line execution inside a block produces no events.

:class:`EventBatch` stores a run of events as four contiguous numpy
columns (``src``, ``dst``, ``kind``, ``backward``).  The producers
(``Machine.run_batched``, ``CFGWalker.walk_batched``) append each
event's four scalars to plain lists in a tight loop and convert a whole
batch at once through the checked constructor; consumers (the path
extractor, the §4 profilers, the hardware models) segment and count
with vectorized masks.  Edge
kinds travel as small integer codes (``CODE_*`` / :data:`CODE_KIND`);
the codes are an in-memory encoding, not a serialization format.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cfg.edge import EdgeKind
from repro.errors import TraceError

#: Dense integer codes for :class:`~repro.cfg.edge.EdgeKind`, in a fixed
#: order so batches built by different producers agree.
CODE_TAKEN = 0
CODE_FALLTHROUGH = 1
CODE_STRAIGHT = 2
CODE_JUMP = 3
CODE_INDIRECT = 4
CODE_CALL = 5
CODE_RETURN = 6

#: code -> EdgeKind (indexable by code).
CODE_KIND: tuple[EdgeKind, ...] = (
    EdgeKind.TAKEN,
    EdgeKind.FALLTHROUGH,
    EdgeKind.STRAIGHT,
    EdgeKind.JUMP,
    EdgeKind.INDIRECT,
    EdgeKind.CALL,
    EdgeKind.RETURN,
)

#: Destination uid of the halt event that ends a trace: the synthetic
#: ``CODE_JUMP`` transfer out of the block whose terminator halted.
HALT_DST = -1


class EventBatch:
    """A run of branch events as four aligned columns.

    Attributes
    ----------
    src / dst:
        ``int64`` block uids, one entry per event (``dst`` is
        :data:`HALT_DST` for the halt event).
    kind:
        ``uint8`` edge-kind codes (the ``CODE_*`` constants).
    backward:
        ``bool`` flags: whether each transfer is a *backward taken
        branch* in the paper's sense, its target address not exceeding
        the branch instruction's.  Fall-through transfers never are.
    """

    __slots__ = ("src", "dst", "kind", "backward")

    def __init__(
        self,
        src: np.ndarray | Sequence[int],
        dst: np.ndarray | Sequence[int],
        kind: np.ndarray | Sequence[int],
        backward: np.ndarray | Sequence[bool],
    ):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.kind = np.asarray(kind, dtype=np.uint8)
        self.backward = np.asarray(backward, dtype=bool)
        n = len(self.src)
        for name in ("src", "dst", "kind", "backward"):
            column = getattr(self, name)
            if column.ndim != 1:
                raise TraceError(f"event column {name!r} must be 1-D")
            if len(column) != n:
                raise TraceError(
                    f"event column {name!r} has {len(column)} entries, "
                    f"expected {n}"
                )
        if n and self.kind.max() >= len(CODE_KIND):
            raise TraceError("event batch contains an unknown kind code")

    @classmethod
    def _from_checked(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        kind: np.ndarray,
        backward: np.ndarray,
    ) -> "EventBatch":
        """A batch over columns the caller has already checked as
        :meth:`__init__` would: 1-D, of equal length, of the column
        dtypes, every kind code known (the wire decoder checks each as
        it parses)."""
        batch = cls.__new__(cls)
        batch.src = src
        batch.dst = dst
        batch.kind = kind
        batch.backward = backward
        return batch

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """Concatenate batches in order (empty input gives an empty batch)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        return cls(
            np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]),
            np.concatenate([b.kind for b in batches]),
            np.concatenate([b.backward for b in batches]),
        )

    @classmethod
    def empty(cls) -> "EventBatch":
        """A zero-event batch."""
        return cls(
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.uint8),
            np.empty(0, bool),
        )

    def slice(self, start: int, stop: int) -> "EventBatch":
        """A view batch over events ``[start, stop)`` (shares memory)."""
        return EventBatch(
            self.src[start:stop],
            self.dst[start:stop],
            self.kind[start:stop],
            self.backward[start:stop],
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.src)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (
            np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.kind, other.kind)
            and np.array_equal(self.backward, other.backward)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventBatch(events={len(self)})"
