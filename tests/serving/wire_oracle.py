"""Column-form references for the serving wire format.

:func:`column_digest` is the digest of a batch computed from its four
columns, each encoded in wire byte order and hashed one after another.
:func:`repro.serving.wire.batch_digest` hashes the payload body in one
update instead, and must agree with it: the serving WAL records these
digests, and recovery compares re-sent batches against logs written
before.
"""

import hashlib

import numpy as np

from repro.serving.wire import decode_batch
from repro.trace.batch import EventBatch


def column_digest(batch: EventBatch) -> int:
    """blake2b of the src, dst, kind and backward columns in wire order."""
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(np.ascontiguousarray(batch.src, dtype="<i8").tobytes())
    hasher.update(np.ascontiguousarray(batch.dst, dtype="<i8").tobytes())
    hasher.update(
        np.ascontiguousarray(batch.kind, dtype=np.uint8).tobytes()
    )
    hasher.update(batch.backward.astype(np.uint8).tobytes())
    return int.from_bytes(hasher.digest(), "little")


def stream_batches(stream) -> list[EventBatch]:
    """A corpus stream's batches, decoded from its payloads."""
    return [decode_batch(payload) for payload in stream.payloads]
