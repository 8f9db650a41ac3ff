"""Wire format: lossless round trips, typed rejection of malformed
payloads, cross-version header rejection, and the payload digest
against its column-form reference."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.serving.wire import (
    BYTES_PER_EVENT,
    HEADER_BYTES,
    WIRE_MAGIC,
    WIRE_VERSION,
    batch_digest,
    decode_batch,
    encode_batch,
)
from repro.trace.batch import CODE_KIND, HALT_DST, EventBatch
from tests.serving.wire_oracle import column_digest


def _batches_equal(a: EventBatch, b: EventBatch) -> bool:
    return (
        np.array_equal(a.src, b.src)
        and np.array_equal(a.dst, b.dst)
        and np.array_equal(a.kind, b.kind)
        and np.array_equal(a.backward, b.backward)
    )


def _sample_batch(n: int, seed: int = 0) -> EventBatch:
    rng = np.random.default_rng(seed)
    return EventBatch(
        rng.integers(-4, 1 << 40, size=n, dtype=np.int64),
        rng.integers(-4, 1 << 40, size=n, dtype=np.int64),
        rng.integers(0, len(CODE_KIND), size=n).astype(np.uint8),
        rng.integers(0, 2, size=n).astype(bool),
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_empty_batch_round_trip():
    payload = encode_batch(EventBatch.empty())
    assert len(payload) == HEADER_BYTES
    decoded = decode_batch(payload)
    assert len(decoded) == 0


def test_single_event_round_trip():
    batch = EventBatch([5], [HALT_DST], [2], [True])
    payload = encode_batch(batch)
    assert len(payload) == HEADER_BYTES + BYTES_PER_EVENT
    assert _batches_equal(decode_batch(payload), batch)


def test_large_batch_round_trip_is_lossless():
    batch = _sample_batch(100_000, seed=3)
    decoded = decode_batch(encode_batch(batch))
    assert _batches_equal(decoded, batch)
    assert decoded.src.dtype == np.int64
    assert decoded.backward.dtype == np.bool_


def test_negative_sentinels_survive():
    batch = EventBatch([-1, 0], [HALT_DST, -2], [0, 1], [False, True])
    assert _batches_equal(decode_batch(encode_batch(batch)), batch)


def test_decode_accepts_memoryview_and_bytearray():
    batch = _sample_batch(17, seed=9)
    payload = encode_batch(batch)
    assert _batches_equal(decode_batch(memoryview(payload)), batch)
    assert _batches_equal(decode_batch(bytearray(payload)), batch)


# ----------------------------------------------------------------------
# Malformed payloads
# ----------------------------------------------------------------------
def test_short_header_rejected():
    with pytest.raises(WireFormatError, match="shorter than"):
        decode_batch(b"RH")


def test_foreign_magic_rejected():
    payload = bytearray(encode_batch(_sample_batch(3)))
    payload[:4] = b"NOPE"
    with pytest.raises(WireFormatError, match="bad magic"):
        decode_batch(bytes(payload))


def test_cross_version_header_rejected():
    batch = _sample_batch(3)
    body = encode_batch(batch)[HEADER_BYTES:]
    future = struct.pack("<4sHHI", WIRE_MAGIC, WIRE_VERSION + 1, 0, 3)
    with pytest.raises(WireFormatError, match="version"):
        decode_batch(future + body)


def test_reserved_flags_rejected():
    batch = _sample_batch(3)
    body = encode_batch(batch)[HEADER_BYTES:]
    flagged = struct.pack("<4sHHI", WIRE_MAGIC, WIRE_VERSION, 1, 3)
    with pytest.raises(WireFormatError, match="flags"):
        decode_batch(flagged + body)


def test_truncated_payload_rejected():
    payload = encode_batch(_sample_batch(10))
    with pytest.raises(WireFormatError, match="truncated"):
        decode_batch(payload[:-1])


def test_trailing_garbage_rejected():
    payload = encode_batch(_sample_batch(10))
    with pytest.raises(WireFormatError, match="oversized"):
        decode_batch(payload + b"\x00")


def test_bad_kind_code_rejected():
    payload = bytearray(encode_batch(_sample_batch(4)))
    # Corrupt the first kind byte (after the two int64 columns).
    payload[HEADER_BYTES + 16 * 4] = 255
    with pytest.raises(WireFormatError, match="kind column"):
        decode_batch(bytes(payload))


def test_bad_backward_byte_rejected():
    payload = bytearray(encode_batch(_sample_batch(4)))
    payload[HEADER_BYTES + 17 * 4] = 2
    with pytest.raises(WireFormatError, match="backward column"):
        decode_batch(bytes(payload))


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=0, max_value=5_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=0, seed=0)
@example(n=5_000, seed=1)
@settings(max_examples=60, deadline=None)
def test_payload_digest_matches_column_reference(n, seed):
    batch = _sample_batch(n, seed=seed)
    payload = encode_batch(batch)
    assert batch_digest(payload) == column_digest(batch)
    assert batch_digest(bytearray(payload)) == batch_digest(payload)
    assert batch_digest(memoryview(payload)) == batch_digest(payload)
