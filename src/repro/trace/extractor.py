"""Segmentation of a branch-event stream into interprocedural forward paths.

Implements the paper's path definition (§3):

    "An interprocedural forward path starts at the target of a backward
    taken branch and extends up to the next backward taken branch.  The
    path may extend across procedure call or return statements unless the
    call or return is a backward branch.  If a path includes a (forward)
    procedure call it will terminate at the corresponding return branch,
    if not earlier."

Operationally the extractor partitions the event stream into consecutive
segments (:func:`repro.trace.columnar.find_cuts` finds the ends).  A
segment ends when

* a backward taken transfer executes (of any kind — conditional, jump,
  indirect, call or return); the transfer belongs to the ending segment
  and the next segment starts at its target;
* a *forward* return executes while the segment has an open in-path call
  (the "corresponding return" rule); nested call/return pairs therefore
  never appear inside one path, matching the rule's "if not earlier";
* the configured maximum path length is reached (Dynamo bounds trace
  length the same way); or
* the program halts.

Every executed block belongs to exactly one segment, so total flow equals
the number of emitted path occurrences — the partition invariant the
metrics rely on (and that the property tests assert).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from repro.cfg.program import Program
from repro.errors import TraceError
from repro.trace.batch import (
    CODE_FALLTHROUGH,
    CODE_INDIRECT,
    CODE_KIND,
    CODE_TAKEN,
    HALT_DST,
    EventBatch,
)
from repro.trace.columnar import find_cuts
from repro.trace.path import Path, PathSignature, PathTable

#: One event as a segment-memo key holds it: the kind code, the
#: backward flag, then the target uid.  Unaligned, so a row is 10 bytes.
_ROW = np.dtype([("kind", "u1"), ("backward", "?"), ("dst", "<i8")])
_ROW_BYTES = _ROW.itemsize

#: Bytes of the start uid that opens every key (a ``dst`` field's width).
_UID_BYTES = 8


def _uid_bytes(uid: int) -> bytes:
    return uid.to_bytes(_UID_BYTES, "little", signed=True)


def _pack_rows(
    dst: np.ndarray, kind: np.ndarray, backward: np.ndarray
) -> bytes:
    """Event columns as packed rows, one after another."""
    rows = np.empty(len(dst), _ROW)
    rows["kind"] = kind
    rows["backward"] = backward
    rows["dst"] = dst
    return rows.tobytes()


def _unpack(key: bytes) -> tuple[int, np.ndarray]:
    """A key's start uid and its events' rows."""
    uid = int.from_bytes(key[:_UID_BYTES], "little", signed=True)
    return uid, np.frombuffer(key, _ROW, offset=_UID_BYTES)


@dataclass(slots=True)
class _BatchCursor:
    """Streaming state while extracting a sequence of batches."""

    expect_src: int  # src the next event must carry (continuity check)
    #: The open segment's memo key so far: its start uid, then one row
    #: per carried event.
    open_segment: bytes
    halted: bool = False
    ids: list[int] = field(default_factory=list)


class PathExtractor:
    """Stateful segmenter turning branch events into path ids.

    Parameters
    ----------
    program:
        The program the events were produced from (provides block sizes
        and addresses for signatures and size figures).
    table:
        Path interning table; supply one to share across runs, otherwise a
        fresh table is created and exposed as :attr:`table`.
    max_blocks:
        Maximum number of blocks per path before a forced cut.  Dynamo
        bounds trace length the same way; ``None`` disables the cap.
    """

    def __init__(
        self,
        program: Program,
        table: PathTable | None = None,
        max_blocks: int | None = 256,
    ):
        if max_blocks is not None and max_blocks < 1:
            raise TraceError("max_blocks must be positive or None")
        self._program = program
        self.table = table if table is not None else PathTable()
        self._max_blocks = max_blocks
        # Extraction interns whole segments through this memo, keyed by
        # one byte string: the segment's start uid, then a packed row
        # (kind, backward, dst) per event.  A backward event always
        # ends its segment, so every backward byte but the last is 0 and
        # the last records how the segment ended.  The key fixes the
        # path's signature, and so its table id: repeated segments
        # resolve without rebuilding Path objects.  See
        # :meth:`extract_batch_ids`.
        self._segment_memo: dict[bytes, int] = {}

    def extract_batch_ids(
        self, batches: EventBatch | Iterable[EventBatch]
    ) -> np.ndarray:
        """Path ids for a columnar stream, one entry per occurrence.

        Accepts a single :class:`EventBatch` or an iterable of batches
        forming one stream (events carried across batch boundaries stay
        in their segment).  Segment boundaries come from
        :func:`repro.trace.columnar.find_cuts`; each segment resolves to
        a table id through a byte-string memo, so repeated segments —
        the overwhelmingly common case on loopy programs — cost no
        per-event Python work at all.
        """
        if isinstance(batches, EventBatch):
            batches = (batches,)
        stream = self.stream()
        ids: list[int] = []
        for batch in batches:
            ids.extend(stream.feed(batch))
        ids.extend(stream.finish())
        return np.asarray(ids, dtype=np.int64)

    def stream(self, start_uid: int | None = None) -> "PathStream":
        """An incremental extraction session over one event stream.

        Where :meth:`extract_batch_ids` consumes a complete stream in
        one call, the returned :class:`PathStream` accepts batches one
        at a time as they arrive — the online form the prediction
        server ingests tenants through.  Feeding every batch and then
        finishing yields exactly the ids :meth:`extract_batch_ids`
        returns for the same stream.
        """
        uid = (
            start_uid
            if start_uid is not None
            else self._program.entry_block.uid
        )
        return PathStream(
            self, _BatchCursor(expect_src=uid, open_segment=_uid_bytes(uid))
        )

    def resume_stream(self, state: dict) -> "PathStream":
        """Rebuild a :class:`PathStream` from a :meth:`PathStream.checkpoint`.

        The extractor must share the path table the checkpointed stream
        was interning into (restored tables re-intern paths in their
        original order, so ids keep meaning the same paths).
        """
        columns = [
            np.asarray(state[name], dtype=np.int64)
            for name in ("carry_dst", "carry_kind", "carry_backward")
        ]
        carry_dst, carry_kind, carry_backward = columns
        # The carried events are validated as the wire decoder
        # validates a batch: a bad code would otherwise flow silently
        # into the next batch's cuts and memo keys.
        if any(c.ndim != 1 or len(c) != len(carry_dst) for c in columns):
            raise TraceError(
                "carried event columns must be 1-D and of equal length"
            )
        if np.any((carry_kind < 0) | (carry_kind >= len(CODE_KIND))):
            raise TraceError("carried events contain an unknown kind code")
        if np.any((carry_backward != 0) & (carry_backward != 1)):
            raise TraceError("carried backward flags must be 0 or 1")
        cursor = _BatchCursor(
            expect_src=int(state["expect_src"]),
            open_segment=_uid_bytes(int(state["uid"]))
            + _pack_rows(carry_dst, carry_kind, carry_backward),
            halted=bool(state["halted"]),
        )
        stream = PathStream(self, cursor)
        stream._finished = bool(state.get("finished", False))
        return stream

    def _consume_batch(self, batch: EventBatch, cursor: _BatchCursor) -> None:
        if len(batch) == 0:
            return
        src = batch.src
        dst = batch.dst
        kind = batch.kind
        backward = batch.backward

        # Truncate at the first halt: the stream ends there, and events
        # beyond it are never even validated.
        halts = (dst == HALT_DST).nonzero()[0]
        if halts.size:
            end = int(halts[0]) + 1
            src = src[:end]
            dst = dst[:end]
            kind = kind[:end]
            backward = backward[:end]
            cursor.halted = True

        # Continuity validation: every event's src must be the previous
        # event's dst (the first continuing from the open segment).
        if int(src[0]) != cursor.expect_src:
            raise TraceError(
                f"event source {int(src[0])} does not match current "
                f"block {cursor.expect_src}"
            )
        if len(src) > 1:
            mismatch = (src[1:] != dst[:-1]).nonzero()[0]
            if mismatch.size:
                at = int(mismatch[0])
                raise TraceError(
                    f"event source {int(src[at + 1])} does not match "
                    f"current block {int(dst[at])}"
                )
        cursor.expect_src = int(dst[-1])

        # Pack the batch behind the open segment (its start uid and
        # carried events; bounded by max_blocks, as a length cut fires
        # before the carry can grow past it).  Each segment's memo key
        # is then one slice: from the start uid it took from the
        # previous cut's dst through its own last row.
        packed = cursor.open_segment + _pack_rows(dst, kind, backward)
        if len(cursor.open_segment) > _UID_BYTES:
            # Cuts are found with the whole open segment in view.
            _, rows = _unpack(packed)
            dst, kind, backward = rows["dst"], rows["kind"], rows["backward"]
        cuts = find_cuts(dst, kind, backward, self._max_blocks)

        # Event i's row ends at byte _UID_BYTES + _ROW_BYTES * (i + 1),
        # so a segment's key ends there and the next one's starts
        # _UID_BYTES earlier, at that event's dst.
        bounds = ((cuts + 1) * _ROW_BYTES).tolist()
        keys = [
            packed[start : stop + _UID_BYTES]
            for start, stop in pairwise([0, *bounds])
        ]
        memo = self._segment_memo
        ids = list(map(memo.get, keys))
        if None in ids:
            for index, key in enumerate(keys):
                if ids[index] is None:
                    # An earlier miss in this batch may have added it.
                    path_id = memo.get(key)
                    if path_id is None:
                        path_id = memo[key] = self._intern_segment(key)
                    ids[index] = path_id
        cursor.ids.extend(ids)
        # The rest is the open segment (after a halt, only its start
        # uid: the halt's dst).
        cursor.open_segment = packed[bounds[-1] :] if bounds else packed

    def _flush_tail(self, cursor: _BatchCursor) -> None:
        """Emit the final, unterminated segment (a stream always has one
        unless it halted).

        Its key is the open segment as carried.  No cut segment shares
        it: the rules that left these events open would have cut the
        other segment at the same place, and a shared entry would still
        hold the right id, since the key fixes the signature.
        """
        key = cursor.open_segment
        path_id = self._segment_memo.get(key)
        if path_id is None:
            path_id = self._segment_memo[key] = self._intern_segment(
                key, tail=True
            )
        cursor.ids.append(path_id)

    def _intern_segment(self, key: bytes, tail: bool = False) -> int:
        """Rebuild one segment's Path from its memo key and intern it.

        Runs once per *distinct* segment (memo misses only): the block
        list, signature bits and indirect targets are replayed event by
        event, exactly as a signature register shifts them in.
        """
        program = self._program
        uid, rows = _unpack(key)
        dsts = rows["dst"].tolist()
        kinds = rows["kind"].tolist()
        # A cut segment's final event belongs to it (its history bit is
        # shifted in) but its target opens the next segment; the tail
        # segment keeps every target.
        blocks = [uid]
        blocks.extend(dsts if tail else dsts[:-1])
        ends_backward = not tail and bool(rows["backward"][-1])
        history = 0
        bit_count = 0
        indirect: list[int] = []
        for dst, code in zip(dsts, kinds):
            if code == CODE_TAKEN:
                history = (history << 1) | 1
                bit_count += 1
            elif code == CODE_FALLTHROUGH:
                history <<= 1
                bit_count += 1
            elif code == CODE_INDIRECT and dst != HALT_DST:
                indirect.append(program.block_by_uid(dst).address)
        signature = PathSignature(
            start_address=program.block_by_uid(uid).address,
            history=history,
            bit_count=bit_count,
            indirect_targets=tuple(indirect),
        )
        path = self._make_path(blocks, signature, ends_backward)
        return self.table.intern(path)

    def _make_path(
        self,
        blocks: list[int],
        signature: PathSignature,
        ends_backward: bool,
    ) -> Path:
        program = self._program
        num_instructions = 0
        num_cond = signature.bit_count
        num_indirect = len(signature.indirect_targets)
        for uid in blocks:
            num_instructions += program.block_by_uid(uid).size
        return Path(
            signature=signature,
            blocks=tuple(blocks),
            start_uid=blocks[0],
            num_instructions=num_instructions,
            num_cond_branches=num_cond,
            num_indirect_branches=num_indirect,
            ends_with_backward_branch=ends_backward,
        )


class PathStream:
    """One live event stream being segmented incrementally.

    Created by :meth:`PathExtractor.stream`.  :meth:`feed` consumes one
    columnar batch and returns the ids of the segments that *completed*
    inside it; events after the last cut stay buffered as the open
    segment until a later batch (or :meth:`finish`) closes them.
    :meth:`finish` ends the stream, emitting the final unterminated
    segment exactly as :meth:`PathExtractor.extract_batch_ids` does.

    The stream shares its extractor's path table and segment memo, so
    ids are directly comparable with any other extraction over the same
    extractor, and repeated segments cost no per-event Python work.
    """

    __slots__ = ("_extractor", "_cursor", "_finished")

    def __init__(self, extractor: PathExtractor, cursor: _BatchCursor):
        self._extractor = extractor
        self._cursor = cursor
        self._finished = False

    @property
    def position(self) -> int:
        """The block uid the stream is at: the src the next event must
        carry.  A new stream over the same program can resume here
        (``PathExtractor.stream(start_uid=position)``) after the open
        segment's buffered events are discarded — how the serving layer
        re-admits an evicted tenant mid-stream."""
        return self._cursor.expect_src

    def feed(self, batch: EventBatch) -> list[int]:
        """Consume one batch; return ids of segments it completed."""
        if self._finished:
            raise TraceError("cannot feed a finished path stream")
        cursor = self._cursor
        if not cursor.halted:
            # The stream ends at its halt; events past it are ignored,
            # not validated.
            self._extractor._consume_batch(batch, cursor)
        return self._drain()

    def finish(self) -> list[int]:
        """End the stream; return ids the final flush completed."""
        if self._finished:
            raise TraceError("path stream already finished")
        self._finished = True
        cursor = self._cursor
        if not cursor.halted:
            self._extractor._flush_tail(cursor)
        return self._drain()

    def _drain(self) -> list[int]:
        ids = self._cursor.ids
        self._cursor.ids = []
        return ids

    # ------------------------------------------------------------------
    # Durable state (serving checkpoints)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """The stream's cursor as plain JSON-able data.

        Captures everything :meth:`feed` carries between batches: the
        open segment's start uid, the continuity expectation, the halt
        flag and the buffered (carried) open-segment columns.  Only
        valid at a batch boundary — i.e. with no undrained completed
        segments, which is always true between :meth:`feed` calls.
        :meth:`PathExtractor.resume_stream` is the inverse; a resumed
        stream continues the event stream byte-identically (same cuts,
        same interned paths, same ids).
        """
        cursor = self._cursor
        if cursor.ids:
            raise TraceError(
                "cannot checkpoint a path stream with undrained segments"
            )
        uid, carried = _unpack(cursor.open_segment)
        return {
            "uid": uid,
            "expect_src": int(cursor.expect_src),
            "halted": bool(cursor.halted),
            "finished": self._finished,
            "carry_dst": carried["dst"].tolist(),
            "carry_kind": carried["kind"].tolist(),
            "carry_backward": carried["backward"].astype(np.uint8).tolist(),
        }
