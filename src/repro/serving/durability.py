"""Durable checkpoint/WAL store for the prediction server.

A server restart must not lose tenant streams: this module persists,
per shard, (1) **snapshots** — the complete
:meth:`~repro.serving.session.TenantSession.snapshot` state of a tenant
at a batch boundary — and (2) a **write-ahead digest log** recording the
``(tenant, seq, digest)`` of every batch applied since, plus tenant
open/close lifecycle records.  Together they let
:meth:`~repro.serving.server.PredictionServer.restore` rebuild every
tenant at its last snapshot and verify that the batches a reconnecting
client re-sends are byte-identical to the ones originally applied —
the exactly-once contract.

Crash-safety mechanics, in the same spirit as the sweep cache:

* snapshots are written to a temp file, fsynced, and published with
  ``os.replace`` — a reader sees the old snapshot or the new one,
  never a torn one;
* WAL records are CRC-framed (``u32 length + u32 crc32 + payload``);
  on open the log is scanned and **truncated at the first torn or
  corrupt record** — a crash mid-append costs at most the record being
  written, which the client will simply re-send;
* the WAL is rotated (rewritten with only live records) once it grows
  past a threshold, so long-lived servers do not accrete unbounded
  history.

Durability level: appends are flushed to the OS on every record (a
*process* crash loses nothing) and fsynced at snapshot, drain and
rotation points (bounding what a *machine* crash can lose to the
window since the last snapshot — exactly the torn-tail scenario the
recovery path and chaos harness exercise).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from repro.errors import CheckpointError

#: Leading bytes of a WAL file ("Repro Hot-path WAL").
WAL_MAGIC = b"RHWL"

#: Leading bytes of a snapshot file ("Repro Hot-path ChecKpoint").
CKPT_MAGIC = b"RHCK"

#: The one store layout version this build reads and writes.
STORE_VERSION = 1

_FILE_HEADER = struct.Struct("<4sI")
_RECORD = struct.Struct("<II")


def _crc(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


def _header(magic: bytes) -> bytes:
    """The file header every WAL and snapshot file starts with."""
    return _FILE_HEADER.pack(magic, STORE_VERSION)


def _check_header(
    data: bytes, magic: bytes, path: pathlib.Path, kind: str
) -> None:
    """Raise unless ``data`` starts with ``magic`` at this version."""
    found, version = _FILE_HEADER.unpack_from(data, 0)
    if found != magic:
        raise CheckpointError(
            f"{path} is not a serving {kind} (magic {found!r})"
        )
    if version != STORE_VERSION:
        raise CheckpointError(
            f"{path} has store version {version}; this build speaks "
            f"version {STORE_VERSION}"
        )


def _frame(record: dict) -> bytes:
    """``record`` as canonical JSON behind its length + CRC frame."""
    payload = json.dumps(
        record, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _RECORD.pack(len(payload), _crc(payload)) + payload


#: A ``batch`` record's payload as :func:`_frame` writes it (sorted
#: keys, no spaces), with holes for its digest, seq and tenant id.
_BATCH_PAYLOAD = b'{"d":%d,"k":"batch","s":%d,"t":%s}'


def _batch_frame(tenant_id: str, seq: int, digest: int) -> bytes:
    """:func:`_frame` of one ``batch`` record, from the template.

    ``json.dumps`` writes a string through ``encode_basestring_ascii``,
    so the tenant id's text is the same bytes; the seq and digest are
    plain ints.
    """
    payload = _BATCH_PAYLOAD % (
        digest,
        seq,
        encode_basestring_ascii(tenant_id).encode("ascii"),
    )
    return _RECORD.pack(len(payload), _crc(payload)) + payload


def _read_frame(data: bytes, offset: int) -> tuple[dict, int] | None:
    """The record framed at ``offset`` and the offset after it.

    ``None`` when the frame is unreadable: a partial header, a short
    payload, a CRC mismatch, or a CRC-valid payload that is not UTF-8
    JSON.
    """
    begin = offset + _RECORD.size
    if begin > len(data):
        return None
    length, crc = _RECORD.unpack_from(data, offset)
    end = begin + length
    payload = data[begin:end]
    if end > len(data) or _crc(payload) != crc:
        return None
    try:
        return json.loads(payload.decode("utf-8")), end
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _publish(target: pathlib.Path, data: bytes) -> None:
    """Atomically replace ``target`` with ``data`` (fsync + rename)."""
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def checkpoint_name(tenant_id: str) -> str:
    """Filesystem-safe snapshot file name for one tenant.

    Tenant ids are arbitrary UTF-8; the file name is a content hash so
    ids with path separators (or ids differing only in case on
    case-folding filesystems) can never collide or escape the shard
    directory.  The id itself travels inside the snapshot payload.
    """
    digest = hashlib.sha1(tenant_id.encode("utf-8")).hexdigest()
    return f"t-{digest[:20]}.ckpt"


@dataclass
class TenantRecovery:
    """Everything the recovery scan learned about one tenant.

    ``snapshot`` is the session state to restore (``None`` when the
    tenant was opened but never checkpointed — it restarts from the
    program entry); ``snapshot_seq`` is the last batch folded into it
    (``-1`` for none).  ``durable_seq`` is the highest batch seq the WAL
    saw, and ``digests`` maps every logged seq to its payload digest so
    re-sent batches can be verified byte-identical before re-applying.
    """

    tenant_id: str
    program_name: str | None = None
    snapshot: dict | None = None
    snapshot_seq: int = -1
    durable_seq: int = -1
    digests: dict[int, int] = field(default_factory=dict)


class ShardStore:
    """Append-only WAL plus atomic snapshots for one shard's tenants."""

    def __init__(self, directory: pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.directory / "wal.log"
        #: Records dropped by torn-tail truncation on open.
        self.truncated_records = 0
        #: Bytes dropped by torn-tail truncation on open.
        self.truncated_bytes = 0
        #: Live record count (survivors on open + appends since).
        self.record_count = 0
        self._records = self._recover_wal()
        self._handle = open(self.wal_path, "ab")

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------
    def _recover_wal(self) -> list[dict]:
        """Read every intact record; truncate the file after the last.

        A torn tail — a partial frame, a CRC mismatch, or an unparsable
        payload — marks the end of the durable prefix: everything from
        there on is discarded (counted in :attr:`truncated_records` /
        :attr:`truncated_bytes`), exactly the semantics of a crash
        mid-append.
        """
        data = self.wal_path.read_bytes() if self.wal_path.exists() else b""
        if len(data) < _FILE_HEADER.size:
            # A new log, or one torn mid-header: start the log over.
            self.truncated_bytes += len(data)
            self.wal_path.write_bytes(_header(WAL_MAGIC))
            return []
        _check_header(data, WAL_MAGIC, self.wal_path, "WAL")
        records: list[dict] = []
        offset = _FILE_HEADER.size
        while (frame := _read_frame(data, offset)) is not None:
            record, offset = frame
            records.append(record)
        if offset < len(data):
            self.truncated_records += 1
            self.truncated_bytes += len(data) - offset
            with open(self.wal_path, "r+b") as handle:
                handle.truncate(offset)
        self.record_count = len(records)
        return records

    def records(self) -> list[dict]:
        """The intact records recovered when the store was opened."""
        return list(self._records)

    def append(self, record: dict, sync: bool = False) -> None:
        """Append one CRC-framed record, flushed to the OS.

        A ``batch`` record, one per applied batch, is framed from a
        template rather than through ``json.dumps``.
        """
        if record["k"] == "batch":
            frame = _batch_frame(record["t"], record["s"], record["d"])
        else:
            frame = _frame(record)
        self._handle.write(frame)
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())
        self.record_count += 1

    def sync(self) -> None:
        """fsync the WAL (snapshot/drain barrier)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rotate(self, live_records: list[dict]) -> None:
        """Atomically rewrite the WAL keeping only ``live_records``."""
        _publish(
            self.wal_path,
            _header(WAL_MAGIC) + b"".join(map(_frame, live_records)),
        )
        self._handle.close()
        self._handle = open(self.wal_path, "ab")
        self.record_count = len(live_records)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def write_snapshot(self, tenant_id: str, payload: dict) -> None:
        """Atomically publish ``tenant_id``'s snapshot (fsync + rename)."""
        _publish(
            self.directory / checkpoint_name(tenant_id),
            _header(CKPT_MAGIC) + _frame(payload),
        )
        # The WAL records referenced by the snapshot must not outlive a
        # machine crash that the snapshot survives.
        self.sync()

    def load_snapshot(self, path: pathlib.Path) -> dict:
        """Read one snapshot file, validating magic, version and CRC."""
        data = path.read_bytes()
        minimum = _FILE_HEADER.size + _RECORD.size
        if len(data) < minimum:
            raise CheckpointError(
                f"{path} is {len(data)} bytes, shorter than the "
                f"{minimum}-byte snapshot envelope"
            )
        _check_header(data, CKPT_MAGIC, path, "snapshot")
        frame = _read_frame(data, _FILE_HEADER.size)
        if frame is None or frame[1] != len(data):
            raise CheckpointError(f"{path} snapshot body is corrupt")
        return frame[0]

    def load_snapshots(self) -> dict[str, dict]:
        """All tenant snapshots in the shard, keyed by tenant id."""
        snapshots: dict[str, dict] = {}
        for path in sorted(self.directory.glob("t-*.ckpt")):
            payload = self.load_snapshot(path)
            snapshots[payload["tenant_id"]] = payload
        return snapshots

    def delete_snapshot(self, tenant_id: str) -> None:
        """Remove ``tenant_id``'s snapshot file if present."""
        target = self.directory / checkpoint_name(tenant_id)
        try:
            target.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        self._handle.close()


class DurabilityStore:
    """The server-wide store: one :class:`ShardStore` per shard.

    The state directory carries a ``meta.json`` pinning the layout
    version and shard count — tenants are hashed onto shards, so a
    restore with a different shard count would look for state in the
    wrong place; that mismatch is an error, not silent data loss.
    """

    def __init__(self, state_dir: str | pathlib.Path, num_shards: int):
        self.state_dir = pathlib.Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.num_shards = num_shards
        meta_path = self.state_dir / "meta.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except json.JSONDecodeError as error:
                raise CheckpointError(
                    f"{meta_path} is not valid JSON"
                ) from error
            if meta.get("version") != STORE_VERSION:
                raise CheckpointError(
                    f"{meta_path} has store version "
                    f"{meta.get('version')}; this build speaks "
                    f"version {STORE_VERSION}"
                )
            if meta.get("num_shards") != num_shards:
                raise CheckpointError(
                    f"state dir was written with "
                    f"{meta.get('num_shards')} shards; this server "
                    f"runs {num_shards} — shard routing would not "
                    "find existing tenants"
                )
        else:
            meta = {"version": STORE_VERSION, "num_shards": num_shards}
            _publish(meta_path, json.dumps(meta).encode("utf-8"))
        self.shards = [
            ShardStore(self.state_dir / f"shard-{index:02d}")
            for index in range(num_shards)
        ]

    # ------------------------------------------------------------------
    def recover(self) -> list[dict[str, TenantRecovery]]:
        """Scan every shard into per-tenant recovery state.

        Applies the lifecycle records in order: ``open`` registers a
        tenant, ``batch`` advances its durable seq and digest map, and
        ``close`` retires it (closed tenants are dropped and any stale
        snapshot file — a crash between the close record and the
        snapshot unlink — is healed here).
        """
        recovered: list[dict[str, TenantRecovery]] = []
        for shard in self.shards:
            tenants: dict[str, TenantRecovery] = {}
            closed: set[str] = set()
            for payload in shard.load_snapshots().values():
                tenant = TenantRecovery(
                    tenant_id=payload["tenant_id"],
                    program_name=payload.get("program_name"),
                    snapshot=payload["session"],
                    snapshot_seq=int(payload["seq"]),
                    durable_seq=int(payload["seq"]),
                )
                tenants[tenant.tenant_id] = tenant
            for record in shard.records():
                kind = record.get("k")
                tid = record.get("t")
                if kind == "open":
                    entry = tenants.get(tid)
                    if entry is None:
                        entry = TenantRecovery(tenant_id=tid)
                        tenants[tid] = entry
                    if entry.program_name is None:
                        entry.program_name = record.get("p")
                    closed.discard(tid)
                elif kind == "batch":
                    entry = tenants.get(tid)
                    if entry is None:
                        entry = TenantRecovery(tenant_id=tid)
                        tenants[tid] = entry
                    seq = int(record["s"])
                    entry.digests[seq] = int(record["d"])
                    if seq > entry.durable_seq:
                        entry.durable_seq = seq
                elif kind == "close":
                    tenants.pop(tid, None)
                    closed.add(tid)
            for tid in closed:
                shard.delete_snapshot(tid)
            recovered.append(tenants)
        return recovered

    def live_records(
        self, shard_index: int, tenants: dict[str, "object"]
    ) -> list[dict]:
        """The records a rotation of one shard's WAL must keep.

        ``tenants`` maps tenant id to an object exposing
        ``program_name``, ``last_snapshot_seq`` and ``digests`` (the
        server's live tenant records): every open tenant keeps its
        ``open`` record and the batch records newer than its snapshot.
        """
        records: list[dict] = []
        for tid, tenant in tenants.items():
            name = getattr(tenant, "program_name", None)
            if name is not None:
                records.append({"k": "open", "t": tid, "p": name})
            snapshot_seq = getattr(tenant, "last_snapshot_seq", -1)
            for seq in sorted(getattr(tenant, "digests", {})):
                if seq > snapshot_seq:
                    records.append(
                        {
                            "k": "batch",
                            "t": tid,
                            "s": seq,
                            "d": tenant.digests[seq],
                        }
                    )
        return records

    def stats(self) -> dict:
        """Aggregate store counters (torn-tail truncation, WAL size)."""
        return {
            "wal_records": sum(s.record_count for s in self.shards),
            "truncated_records": sum(
                s.truncated_records for s in self.shards
            ),
            "truncated_bytes": sum(
                s.truncated_bytes for s in self.shards
            ),
        }

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
