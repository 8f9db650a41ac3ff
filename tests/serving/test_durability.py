"""Durability: checkpoint/WAL store units and crash-safe server behavior.

Store level: CRC-framed WAL round trips, torn tails truncate instead of
poisoning recovery, snapshots publish atomically, rotation keeps only
live records, a state dir written by a differently-sharded server is
an error rather than silent misrouting, and the WAL and snapshot bytes
of a fixed durable run are pinned.

Server level: the exactly-once protocol (duplicates acked without
effect, gaps and history rewrites rejected with typed errors), crash →
``restore`` → client re-send from ``expected_seq`` producing selections
and final reports byte-identical to an uninterrupted run — including
composed with LRU budget eviction — and drain → restore resuming with
zero re-sends.
"""

import hashlib
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    CheckpointError,
    DrainingError,
    SequenceError,
    ServingError,
)
from repro.serving import (
    DurabilityStore,
    PredictionServer,
    ServerConfig,
    batch_digest,
    decode_batch,
    encode_batch,
)
from repro.serving.durability import (
    _FILE_HEADER,
    _RECORD,
    CKPT_MAGIC,
    STORE_VERSION,
    WAL_MAGIC,
    ShardStore,
    _frame,
    checkpoint_name,
)
from repro.serving.loadgen import build_stream
from repro.trace.batch import EventBatch

DELAY = 10


def _stream(seed=11, events=2_000):
    return build_stream(seed=seed, events=events, batch_events=128, trips=20)


def _config(**overrides):
    defaults = dict(
        num_shards=2, delay=DELAY, checkpoint_interval_batches=3
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def _report_fingerprint(report):
    return (
        report.outcome.predicted_ids.tobytes(),
        report.outcome.prediction_times.tobytes(),
        report.outcome.counter_space,
        report.events_ingested,
        report.batches_ingested,
        tuple(
            (s.path_id, s.time, s.head_uid, s.blocks, s.num_instructions)
            for s in report.selections
        ),
    )


def _sans_tenant(selections):
    """Selections-by-seq with the tenant id (the only field that may
    legitimately differ between runs) dropped."""
    return {
        seq: tuple(
            (s.path_id, s.time, s.head_uid, s.blocks, s.num_instructions)
            for s in sels
        )
        for seq, sels in selections.items()
    }


def _baseline(stream, config):
    """Selections-by-seq and final report of an uninterrupted run."""
    server = PredictionServer(config)
    server.open_tenant("t0", stream.program)
    selections = {
        seq: server.ingest("t0", payload, seq=seq).selections
        for seq, payload in enumerate(stream.payloads)
    }
    return selections, server.close_tenant("t0")


# ----------------------------------------------------------------------
# Store: WAL
# ----------------------------------------------------------------------
def test_wal_records_survive_reopen(tmp_path):
    store = ShardStore(tmp_path / "shard-00")
    records = [{"k": "batch", "t": "a", "s": seq, "d": seq * 7} for seq in range(5)]
    for record in records:
        store.append(record)
    store.close()
    reopened = ShardStore(tmp_path / "shard-00")
    assert reopened.records() == records
    assert reopened.truncated_records == 0
    reopened.close()


_U64 = st.integers(0, 2**64 - 1)


@given(
    tenant_id=st.text(st.characters(blacklist_categories=())),
    seq=_U64,
    digest=_U64,
)
@example(tenant_id='say "hi"', seq=0, digest=0)
@example(tenant_id="back\\slash\\", seq=2**64 - 1, digest=2**64 - 1)
@example(tenant_id="\x00\x1f\n\t\x7f\u2028", seq=1, digest=2**63)
@example(tenant_id="t\u00e9nant-\u2603-\U0001f600-\ud800", seq=7, digest=9)
@settings(max_examples=200, deadline=None)
def test_appended_batch_record_is_its_canonical_frame(tenant_id, seq, digest):
    """``append`` frames a ``batch`` record from a template: the bytes
    it writes are ``_frame``'s, and they read back as the record."""
    record = {"k": "batch", "t": tenant_id, "s": seq, "d": digest}
    with tempfile.TemporaryDirectory() as root:
        store = ShardStore(root)
        store.append(record)
        store.close()
        written = store.wal_path.read_bytes()[_FILE_HEADER.size :]
        reopened = ShardStore(root)
        assert reopened.records() == [record]
        reopened.close()
    assert written == _frame(record)


def test_torn_tail_truncated_not_fatal(tmp_path):
    store = ShardStore(tmp_path / "s")
    for seq in range(3):
        store.append({"k": "batch", "t": "a", "s": seq, "d": 0})
    store.close()
    with open(store.wal_path, "ab") as handle:
        handle.write(b"\x99\x99\x99")  # crash mid-append

    reopened = ShardStore(tmp_path / "s")
    assert len(reopened.records()) == 3
    assert reopened.truncated_bytes == 3
    # The truncated store keeps working: appends land after the repair.
    reopened.append({"k": "batch", "t": "a", "s": 3, "d": 0})
    reopened.close()
    final = ShardStore(tmp_path / "s")
    assert [r["s"] for r in final.records()] == [0, 1, 2, 3]
    assert final.truncated_bytes == 0
    final.close()


def test_corrupt_record_body_dropped(tmp_path):
    store = ShardStore(tmp_path / "s")
    for seq in range(4):
        store.append({"k": "batch", "t": "a", "s": seq, "d": 0})
    store.close()
    data = bytearray(store.wal_path.read_bytes())
    data[-1] ^= 0xFF  # bit-rot in the last record's payload
    store.wal_path.write_bytes(bytes(data))

    reopened = ShardStore(tmp_path / "s")
    assert [r["s"] for r in reopened.records()] == [0, 1, 2]
    assert reopened.truncated_records == 1
    reopened.close()


def test_rotation_keeps_only_live_records(tmp_path):
    store = ShardStore(tmp_path / "s")
    for seq in range(10):
        store.append({"k": "batch", "t": "a", "s": seq, "d": 0})
    live = [{"k": "open", "t": "a", "p": "gen"}, {"k": "batch", "t": "a", "s": 9, "d": 0}]
    store.rotate(live)
    assert store.record_count == 2
    store.append({"k": "batch", "t": "a", "s": 10, "d": 0})
    store.close()
    reopened = ShardStore(tmp_path / "s")
    assert reopened.records() == live + [{"k": "batch", "t": "a", "s": 10, "d": 0}]
    reopened.close()


def test_wal_bad_magic_is_an_error(tmp_path):
    store = ShardStore(tmp_path / "s")
    store.close()
    store.wal_path.write_bytes(b"not a wal at all, definitely")
    with pytest.raises(CheckpointError, match="magic"):
        ShardStore(tmp_path / "s")


# ----------------------------------------------------------------------
# Store: snapshots and meta
# ----------------------------------------------------------------------
def test_snapshot_roundtrip_and_delete(tmp_path):
    store = ShardStore(tmp_path / "s")
    payload = {"tenant_id": "t/../0", "seq": 7, "session": {"x": 1}}
    store.write_snapshot("t/../0", payload)
    # Hashed names: hostile tenant ids cannot escape the shard dir.
    name = checkpoint_name("t/../0")
    assert (tmp_path / "s" / name).exists()
    assert ".." not in name and "/" not in name
    assert store.load_snapshots() == {"t/../0": payload}
    store.delete_snapshot("t/../0")
    assert store.load_snapshots() == {}
    store.close()


def test_snapshot_overwrite_is_atomic_latest_wins(tmp_path):
    store = ShardStore(tmp_path / "s")
    for seq in range(3):
        store.write_snapshot("a", {"tenant_id": "a", "seq": seq, "session": {}})
    assert store.load_snapshots()["a"]["seq"] == 2
    store.close()


def test_corrupt_snapshot_is_an_error(tmp_path):
    store = ShardStore(tmp_path / "s")
    store.write_snapshot("a", {"tenant_id": "a", "seq": 0, "session": {}})
    path = tmp_path / "s" / checkpoint_name("a")
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="corrupt"):
        store.load_snapshots()
    store.close()


def _framed(body):
    """``body`` behind a valid length and CRC."""
    return _RECORD.pack(len(body), zlib.crc32(body)) + body


def _reheaded(frame, length_delta=0, crc_mask=0):
    """``frame`` with its length shifted and bits of its CRC flipped."""
    length, crc = _RECORD.unpack_from(frame, 0)
    return (
        _RECORD.pack(length + length_delta, crc ^ crc_mask)
        + frame[_RECORD.size :]
    )


#: Damage to one frame, as the snapshot reader and the WAL scan meet it.
#: Each maps an intact frame to the bytes left on disk in its place.
FRAME_DAMAGE = {
    "short-envelope": lambda frame: frame[: _RECORD.size - 1],
    "length-one-too-long": lambda frame: _reheaded(frame, length_delta=1),
    "length-one-too-short": lambda frame: _reheaded(frame, length_delta=-1),
    "crc-mismatch": lambda frame: _reheaded(frame, crc_mask=1),
    "body-not-utf8": lambda frame: _framed(b'{"k":"\xff"}'),
    "body-not-json": lambda frame: _framed(b'{"k":'),
    "trailing-byte": lambda frame: frame + b"\x00",
}


@pytest.mark.parametrize("damage", sorted(FRAME_DAMAGE))
def test_damaged_snapshot_frame_is_an_error(tmp_path, damage):
    store = ShardStore(tmp_path / "s")
    store.write_snapshot("a", {"tenant_id": "a", "seq": 0, "session": {}})
    store.close()
    path = tmp_path / "s" / checkpoint_name("a")
    data = path.read_bytes()
    header, frame = data[: _FILE_HEADER.size], data[_FILE_HEADER.size :]
    path.write_bytes(header + FRAME_DAMAGE[damage](frame))
    message = "envelope" if damage == "short-envelope" else "corrupt"
    with pytest.raises(CheckpointError, match=message):
        store.load_snapshot(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (_FILE_HEADER.pack(WAL_MAGIC, STORE_VERSION), "magic"),
        (_FILE_HEADER.pack(CKPT_MAGIC, STORE_VERSION + 1), "version"),
    ],
    ids=["magic", "version"],
)
def test_snapshot_header_is_checked(tmp_path, header, message):
    store = ShardStore(tmp_path / "s")
    store.write_snapshot("a", {"tenant_id": "a", "seq": 0, "session": {}})
    store.close()
    path = tmp_path / "s" / checkpoint_name("a")
    path.write_bytes(header + path.read_bytes()[_FILE_HEADER.size :])
    with pytest.raises(CheckpointError, match=message):
        store.load_snapshot(path)


@pytest.mark.parametrize("damage", sorted(FRAME_DAMAGE))
def test_damaged_wal_frame_truncates_there(tmp_path, damage):
    records = [{"k": "batch", "t": "a", "s": seq, "d": 0} for seq in range(3)]
    store = ShardStore(tmp_path / "s")
    for record in records:
        store.append(record)
    store.close()
    data = store.wal_path.read_bytes()
    last = len(data) - len(_frame(records[-1]))
    damaged = FRAME_DAMAGE[damage](data[last:])
    store.wal_path.write_bytes(data[:last] + damaged)

    reopened = ShardStore(tmp_path / "s")
    reopened.close()
    # A trailing byte damages nothing before it: every record survives.
    kept = records if damage == "trailing-byte" else records[:-1]
    end = len(data) if damage == "trailing-byte" else last
    assert reopened.records() == kept
    assert reopened.truncated_records == 1
    assert reopened.truncated_bytes == last + len(damaged) - end
    assert store.wal_path.read_bytes() == data[:end]


def test_shard_count_mismatch_is_an_error(tmp_path):
    DurabilityStore(tmp_path, num_shards=4).close()
    with pytest.raises(CheckpointError, match="shards"):
        DurabilityStore(tmp_path, num_shards=2)


def test_recover_scans_open_batch_close(tmp_path):
    store = DurabilityStore(tmp_path, num_shards=1)
    shard = store.shards[0]
    shard.append({"k": "open", "t": "a", "p": "gen:7"})
    shard.append({"k": "batch", "t": "a", "s": 0, "d": 11})
    shard.append({"k": "batch", "t": "a", "s": 1, "d": 22})
    shard.append({"k": "open", "t": "b", "p": "gen:7"})
    shard.append({"k": "close", "t": "b"})
    store.close()

    reopened = DurabilityStore(tmp_path, num_shards=1)
    recovered = reopened.recover()[0]
    reopened.close()
    assert set(recovered) == {"a"}  # closed tenants stay retired
    entry = recovered["a"]
    assert entry.program_name == "gen:7"
    assert entry.durable_seq == 1
    assert entry.digests == {0: 11, 1: 22}
    assert entry.snapshot is None and entry.snapshot_seq == -1


# ----------------------------------------------------------------------
# Store: pinned bytes
# ----------------------------------------------------------------------
#: SHA-256 of every file a durable server leaves in its shard
#: directories after the fixed run below.  Recovery reads logs and
#: snapshots written by earlier builds, so a changed hash means the WAL
#: framing, a record's JSON, a batch digest or the snapshot format
#: changed.
GOLDEN_STORE = {
    "shard-00/t-1e61fe1e47593d783345.ckpt": (
        "b56789bcc599dfd7305aaa02fdb00ef99e6072cc67ec37961d02dc4b03403cd1"
    ),
    "shard-00/wal.log": (
        "95b4b26e35200cf9b8db9e92d3401e6bc3acd2cce53c581924b66a22144eb24a"
    ),
}


def test_store_bytes_are_pinned(tmp_path, monkeypatch):
    """Two tenants replay one stream through one shard; one is closed,
    the other crashes with a snapshot on disk.  The WAL holds open,
    batch and close records and has been rotated once."""
    rotations = []
    rotate = ShardStore.rotate

    def counting_rotate(self, live_records):
        rotations.append(len(live_records))
        rotate(self, live_records)

    monkeypatch.setattr(ShardStore, "rotate", counting_rotate)
    stream = _stream()
    server = PredictionServer(
        _config(
            num_shards=1, checkpoint_interval_batches=4, wal_rotate_records=20
        ),
        state_dir=tmp_path,
    )
    for tenant_id in ("kept", "closed"):
        server.open_tenant(tenant_id, stream.program, program_name=stream.name)
    for seq, payload in enumerate(stream.payloads):
        for tenant_id in ("kept", "closed"):
            server.ingest(tenant_id, payload, seq=seq)
    server.close_tenant("closed")
    server.close()

    assert len(rotations) == 1
    reopened = ShardStore(tmp_path / "shard-00")
    assert {record["k"] for record in reopened.records()} == {
        "open",
        "batch",
        "close",
    }
    reopened.close()
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in tmp_path.glob("shard-*/*")
    }
    assert digests == GOLDEN_STORE


# ----------------------------------------------------------------------
# Server: exactly-once ingest
# ----------------------------------------------------------------------
def test_duplicate_acked_without_effect(tmp_path):
    stream = _stream()
    server = PredictionServer(_config(), state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    first = server.ingest("t0", stream.payloads[0], seq=0)
    again = server.ingest("t0", stream.payloads[0], seq=0)
    assert again.duplicate and not first.duplicate
    assert again.selections == ()
    assert server.expected_seq("t0") == 1
    stats = server.stats()
    assert stats["dropped"] == 1
    assert server.close_tenant("t0").batches_ingested == 1
    server.close()


def test_gap_rejected_with_typed_error(tmp_path):
    stream = _stream()
    server = PredictionServer(_config(), state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    server.ingest("t0", stream.payloads[0], seq=0)
    with pytest.raises(SequenceError) as excinfo:
        server.ingest("t0", stream.payloads[2], seq=2)
    assert excinfo.value.expected == 1
    assert excinfo.value.got == 2
    assert excinfo.value.reason == "gap"
    server.close()


def test_history_rewrite_rejected(tmp_path):
    stream = _stream()
    server = PredictionServer(_config(), state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    server.ingest("t0", stream.payloads[0], seq=0)
    with pytest.raises(SequenceError, match="differs"):
        server.ingest("t0", stream.payloads[1], seq=0)
    server.close()


def test_expected_seq_unknown_tenant_is_zero():
    server = PredictionServer(_config())
    assert server.expected_seq("nobody") == 0


# ----------------------------------------------------------------------
# Server: crash, restore, replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kill_at", [1, 4, 9])
def test_crash_restore_byte_identical(tmp_path, kill_at):
    stream = _stream()
    config = _config()
    base_selections, base_report = _baseline(stream, config)

    server = PredictionServer(config, state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    selections = {}
    for seq in range(kill_at):
        selections[seq] = server.ingest(
            "t0", stream.payloads[seq], seq=seq
        ).selections
    server.close()  # crash: no drain, no final checkpoint

    programs = {stream.name: stream.program}
    server = PredictionServer.restore(tmp_path, programs, config=config)
    resume = server.expected_seq("t0")
    assert resume <= kill_at  # rewound to the last snapshot
    for seq in range(resume, len(stream.payloads)):
        result = server.ingest("t0", stream.payloads[seq], seq=seq)
        # Replayed batches re-produce the originally returned selections.
        if seq in selections:
            assert result.selections == selections[seq]
        selections[seq] = result.selections
    report = server.close_tenant("t0")

    assert selections == base_selections
    assert _report_fingerprint(report) == _report_fingerprint(base_report)
    assert server.stats()["replayed"] == kill_at - resume
    server.close()


def test_replayed_batch_must_be_byte_identical(tmp_path):
    stream = _stream()
    config = _config(checkpoint_interval_batches=100)  # no snapshots
    server = PredictionServer(config, state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    server.ingest("t0", stream.payloads[0], seq=0)
    server.close()

    server = PredictionServer.restore(
        tmp_path, {stream.name: stream.program}, config=config
    )
    assert server.expected_seq("t0") == 0
    original = decode_batch(stream.payloads[0])
    tampered = encode_batch(
        EventBatch(
            src=np.ascontiguousarray(original.src[::-1]),
            dst=original.dst,
            kind=original.kind,
            backward=original.backward,
        )
    )
    assert batch_digest(tampered) != batch_digest(stream.payloads[0])
    with pytest.raises(SequenceError, match="digest"):
        server.ingest("t0", tampered, seq=0)
    server.close()


def test_drain_then_restore_resumes_with_zero_resends(tmp_path):
    stream = _stream()
    config = _config(checkpoint_interval_batches=10_000)
    base_selections, base_report = _baseline(stream, config)

    half = len(stream.payloads) // 2
    server = PredictionServer(config, state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    selections = {
        seq: server.ingest("t0", stream.payloads[seq], seq=seq).selections
        for seq in range(half)
    }
    server.drain(timeout=10.0)
    with pytest.raises(DrainingError):
        server.ingest("t0", stream.payloads[half], seq=half)
    server.close()

    server = PredictionServer.restore(
        tmp_path, {stream.name: stream.program}, config=config
    )
    # Drain checkpointed everything: the successor starts exactly where
    # the predecessor stopped, no batches re-sent.
    assert server.expected_seq("t0") == half
    for seq in range(half, len(stream.payloads)):
        selections[seq] = server.ingest(
            "t0", stream.payloads[seq], seq=seq
        ).selections
    report = server.close_tenant("t0")
    assert selections == base_selections
    assert _report_fingerprint(report) == _report_fingerprint(base_report)
    assert server.stats()["replayed"] == 0
    server.close()


def test_closed_tenant_stays_retired_after_restart(tmp_path):
    stream = _stream()
    config = _config()
    server = PredictionServer(config, state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    server.ingest("t0", stream.payloads[0], seq=0)
    server.close_tenant("t0")
    server.close()

    server = PredictionServer.restore(
        tmp_path, {stream.name: stream.program}, config=config
    )
    assert server.expected_seq("t0") == 0
    with pytest.raises(ServingError):
        server.ingest("t0", stream.payloads[0], seq=1)
    server.close()


def test_eviction_and_crash_compose(tmp_path):
    """LRU budget eviction during a durable run parks sessions in the
    store; a crash after evictions still restores byte-identically."""
    streams = [_stream(seed=11), _stream(seed=14)]
    config = _config(memory_budget_bytes=1)  # evict after every ingest
    baselines = [
        _baseline(stream, _config()) for stream in streams
    ]

    server = PredictionServer(config, state_dir=tmp_path)
    selections = [{} for _ in streams]
    for index, stream in enumerate(streams):
        server.open_tenant(
            f"t{index}", stream.program, program_name=stream.name
        )
    half = len(streams[0].payloads) // 2
    for seq in range(half):
        for index, stream in enumerate(streams):
            selections[index][seq] = server.ingest(
                f"t{index}", stream.payloads[seq], seq=seq
            ).selections
    stats = server.stats()
    assert stats["evictions"] > 0 and stats["restores"] > 0
    server.close()  # crash with every session parked or mid-flight

    programs = {stream.name: stream.program for stream in streams}
    server = PredictionServer.restore(tmp_path, programs, config=config)
    for index, stream in enumerate(streams):
        tenant_id = f"t{index}"
        for seq in range(server.expected_seq(tenant_id), len(stream.payloads)):
            result = server.ingest(tenant_id, stream.payloads[seq], seq=seq)
            if seq in selections[index]:
                assert result.selections == selections[index][seq]
            selections[index][seq] = result.selections
        report = server.close_tenant(tenant_id)
        base_selections, base_report = baselines[index]
        assert _sans_tenant(selections[index]) == _sans_tenant(base_selections)
        assert _report_fingerprint(report) == _report_fingerprint(base_report)
    assert server.state_bytes() == 0
    server.close()


def test_wal_rotation_under_load_keeps_recovery_sound(tmp_path):
    stream = _stream()
    config = _config(wal_rotate_records=4)
    base_selections, base_report = _baseline(stream, _config())

    server = PredictionServer(config, state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    for seq, payload in enumerate(stream.payloads[:-1]):
        server.ingest("t0", payload, seq=seq)
    assert server.stats()["wal_records"] <= 2 * config.wal_rotate_records
    server.close()

    server = PredictionServer.restore(
        tmp_path, {stream.name: stream.program}, config=config
    )
    selections = {}
    for seq in range(server.expected_seq("t0"), len(stream.payloads)):
        selections[seq] = server.ingest(
            "t0", stream.payloads[seq], seq=seq
        ).selections
    report = server.close_tenant("t0")
    assert _report_fingerprint(report) == _report_fingerprint(base_report)
    for seq, sels in selections.items():
        assert sels == base_selections[seq]
    server.close()


def test_corrupt_wal_tail_truncated_and_recovered(tmp_path):
    stream = _stream()
    config = _config(checkpoint_interval_batches=100)
    base_selections, base_report = _baseline(stream, _config())

    server = PredictionServer(config, state_dir=tmp_path)
    server.open_tenant("t0", stream.program, program_name=stream.name)
    for seq in range(3):
        server.ingest("t0", stream.payloads[seq], seq=seq)
    server.close()
    for wal in tmp_path.glob("shard-*/wal.log"):
        data = bytearray(wal.read_bytes())
        if len(data) > 8:
            data[-1] ^= 0xFF
            wal.write_bytes(bytes(data))

    server = PredictionServer.restore(
        tmp_path, {stream.name: stream.program}, config=config
    )
    assert server.stats()["truncated_bytes"] > 0
    resume = server.expected_seq("t0")
    assert resume < 3  # the torn record's batch must be re-sent
    selections = {}
    for seq in range(resume, len(stream.payloads)):
        selections[seq] = server.ingest(
            "t0", stream.payloads[seq], seq=seq
        ).selections
    report = server.close_tenant("t0")
    assert _report_fingerprint(report) == _report_fingerprint(base_report)
    for seq, sels in selections.items():
        assert sels == base_selections[seq]
    server.close()
