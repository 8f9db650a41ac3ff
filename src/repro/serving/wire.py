"""Wire serialization of :class:`~repro.trace.batch.EventBatch`.

The columnar batch is already the in-memory exchange format of the
event pipeline; its wire encoding is the one form a batch takes in
:mod:`repro.serving`, from the client to the server's WAL.  A payload
is a fixed little-endian header followed by the four columns back to
back::

    offset  size  field
    0       4     magic  b"RHPB"
    4       2     format version (u16)
    6       2     flags, reserved, must be 0 (u16)
    8       4     event count n (u32)
    12      8*n   src column      (i64)
    12+8n   8*n   dst column      (i64)
    12+16n  1*n   kind column     (u8, CODE_* values)
    12+17n  1*n   backward column (u8, strictly 0 or 1)

Decoding is zero-copy over the input buffer (numpy views into the
immutable payload bytes); every malformation — truncation, trailing
garbage, foreign magic, a version this build does not speak, or column
values outside their domain — raises
:class:`~repro.errors.WireFormatError` with a message naming the
offending field, never a silent partial batch.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.errors import WireFormatError
from repro.trace.batch import CODE_KIND, EventBatch

#: Leading bytes of every payload ("Repro Hot-Path Batch").
WIRE_MAGIC = b"RHPB"

#: The one format version this build encodes and accepts.
WIRE_VERSION = 1

_HEADER = struct.Struct("<4sHHI")

#: Header size in bytes.
HEADER_BYTES = _HEADER.size

#: Fixed per-event payload cost (8 + 8 + 1 + 1 column bytes).
BYTES_PER_EVENT = 18


def batch_digest(payload: bytes | bytearray | memoryview) -> int:
    """Content digest of one payload as an unsigned 64-bit integer.

    A blake2b hash of the payload body: the four event columns in wire
    order, without the header.  The serving durability layer logs this
    digest per ingested batch: a retried batch must re-present the same
    digest under the same sequence number, which is how exactly-once
    ingest distinguishes a safe duplicate from an attempt to rewrite
    stream history.
    """
    body = memoryview(payload)[HEADER_BYTES:]
    digest = hashlib.blake2b(body, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def encode_batch(batch: EventBatch) -> bytes:
    """Serialize ``batch`` into one self-describing payload."""
    n = len(batch)
    header = _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0, n)
    return b"".join(
        (
            header,
            np.ascontiguousarray(batch.src, dtype="<i8").tobytes(),
            np.ascontiguousarray(batch.dst, dtype="<i8").tobytes(),
            np.ascontiguousarray(batch.kind, dtype=np.uint8).tobytes(),
            batch.backward.astype(np.uint8).tobytes(),
        )
    )


def decode_batch(payload: bytes | bytearray | memoryview) -> EventBatch:
    """Parse one payload back into an :class:`EventBatch`.

    The returned batch's columns are read-only views into ``payload``
    (no copy); callers that need to outlive the buffer should copy.
    """
    view = memoryview(payload)
    if len(view) < HEADER_BYTES:
        raise WireFormatError(
            f"payload of {len(view)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    magic, version, flags, count = _HEADER.unpack_from(view, 0)
    if magic != WIRE_MAGIC:
        raise WireFormatError(
            f"bad magic {bytes(magic)!r}; expected {WIRE_MAGIC!r}"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire format version {version}; this build "
            f"speaks version {WIRE_VERSION}"
        )
    if flags != 0:
        raise WireFormatError(f"reserved header flags must be 0, got {flags}")
    expected = HEADER_BYTES + count * BYTES_PER_EVENT
    if len(view) != expected:
        kind = "truncated" if len(view) < expected else "oversized"
        raise WireFormatError(
            f"{kind} payload: header declares {count} events "
            f"({expected} bytes), buffer has {len(view)}"
        )

    offset = HEADER_BYTES
    src = np.frombuffer(view, dtype="<i8", count=count, offset=offset)
    offset += 8 * count
    dst = np.frombuffer(view, dtype="<i8", count=count, offset=offset)
    offset += 8 * count
    kind = np.frombuffer(view, dtype=np.uint8, count=count, offset=offset)
    offset += count
    backward = np.frombuffer(
        view, dtype=np.uint8, count=count, offset=offset
    )

    if count and kind.max() >= len(CODE_KIND):
        raise WireFormatError(
            f"kind column contains code {int(kind.max())}; valid codes "
            f"are 0..{len(CODE_KIND) - 1}"
        )
    if count and backward.max() > 1:
        raise WireFormatError(
            "backward column contains a byte other than 0 or 1"
        )
    return EventBatch._from_checked(src, dst, kind, backward.view(bool))
