"""TenantSession: streaming pipeline equivalence and state metering."""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import CheckpointError, ServingError
from repro.serving.loadgen import build_stream, standalone_outcome
from repro.serving.session import TenantSession
from tests.serving.wire_oracle import stream_batches

DELAY = 10


def _stream():
    return build_stream(seed=11, events=2_000, batch_events=128, trips=20)


def test_session_matches_standalone_predictor():
    stream = _stream()
    session = TenantSession("t", stream.program, delay=DELAY)
    selections = []
    for batch in stream_batches(stream):
        selections.extend(session.ingest(batch))
    selections.extend(session.close())

    offline = standalone_outcome(stream, delay=DELAY)
    online = session.outcome()
    assert online.scheme == offline.scheme
    assert online.delay == offline.delay
    assert np.array_equal(online.predicted_ids, offline.predicted_ids)
    assert np.array_equal(online.prediction_times, offline.prediction_times)
    assert np.array_equal(online.captured, offline.captured)
    assert online.counter_space == offline.counter_space
    assert online.profiling_ops == offline.profiling_ops
    # The selection stream is the outcome, delivered incrementally.
    assert [s.path_id for s in selections] == list(offline.predicted_ids)
    assert [s.time for s in selections] == list(offline.prediction_times)


def test_selections_carry_fragments():
    stream = _stream()
    session = TenantSession("frag", stream.program, delay=2)
    selections = []
    for batch in stream_batches(stream):
        selections.extend(session.ingest(batch))
    selections.extend(session.close())
    assert selections, "delay=2 on a looping stream must select paths"
    table = {s.path_id for s in selections}
    assert len(table) == len(selections), "each path selected once"
    for selection in selections:
        assert selection.tenant_id == "frag"
        assert len(selection.blocks) >= 1
        assert selection.blocks[0] == selection.head_uid
        assert selection.num_instructions > 0


def test_state_bytes_grow_monotonically():
    stream = _stream()
    session = TenantSession("meter", stream.program, delay=DELAY)
    assert session.state_bytes == 0
    seen = 0
    for batch in stream_batches(stream):
        session.ingest(batch)
        assert session.state_bytes >= seen
        seen = session.state_bytes
    assert seen > 0
    assert session.counter_space > 0
    assert session.num_paths > 0


def test_closed_session_rejects_further_use():
    stream = _stream()
    session = TenantSession("done", stream.program, delay=DELAY)
    batch = stream_batches(stream)[0]
    session.ingest(batch)
    session.close()
    with pytest.raises(ServingError, match="closed"):
        session.ingest(batch)
    with pytest.raises(ServingError, match="closed"):
        session.close()


# ----------------------------------------------------------------------
# Malformed snapshots
# ----------------------------------------------------------------------
def _snapshot_after(batches: int):
    stream = _stream()
    session = TenantSession("snap", stream.program, delay=DELAY)
    for batch in stream_batches(stream)[:batches]:
        session.ingest(batch)
    return stream.program, session.snapshot()


def test_restore_rejects_history_wider_than_bit_count():
    program, state = _snapshot_after(8)
    record = state["paths"][0]
    record[2] = 1 << record[3]  # history one bit too wide
    with pytest.raises(CheckpointError, match="does not fit"):
        TenantSession.restore(program, state)


def test_restore_rejects_duplicated_path_record():
    program, state = _snapshot_after(8)
    paths = state["paths"]
    paths.insert(1, paths[0])
    with pytest.raises(CheckpointError, match="duplicates"):
        TenantSession.restore(program, state)


@pytest.mark.parametrize(
    "column, values, match",
    [
        ("carry_kind", [0, 99, 2], "unknown kind code"),
        ("carry_backward", [0, 2, 0], "0 or 1"),
        ("carry_dst", [33, 34], "equal length"),
    ],
)
def test_restore_rejects_malformed_carried_events(column, values, match):
    program, state = _snapshot_after(8)
    carried = state["stream"]
    assert len(carried["carry_dst"]) == 3, "the snapshot must carry events"
    carried[column] = values
    with pytest.raises(CheckpointError, match=match):
        TenantSession.restore(program, state)


# ----------------------------------------------------------------------
# Pinned snapshot contract
# ----------------------------------------------------------------------
#: SHA-256 of ``json.dumps(session.snapshot(), sort_keys=True)`` after
#: batches 8 and 16 of the golden stream, per configuration
#: ``(delay, max_blocks, count_backward_arrivals_only)``.  The stream
#: has forward calls and returns, so return cuts fire; ``max_blocks=4``
#: adds length cuts.  A changed hash means the snapshot format, the
#: extraction or the NET state changed.
GOLDEN_SNAPSHOTS = {
    (3, 256, True): {
        8: "14b907c04d07934fc757fcedf1e5337b9e5381f2bcd5ea0002de50b9111cf11e",
        16: "f5c193447e7787b6c517aadff68c7c47e2d69494ee54227d33a7de46698f71d1",
    },
    (0, 4, False): {
        8: "3e1084fb8d84d1b8670f2365c1b4e38df92a6d3a2bede9bf4e2cb2dfd82dc7dc",
        16: "7ae34becb1cfb4b134873165d31e5dad9c8e14c2e73f92e2f896aa38b495ce20",
    },
}


def _golden_stream():
    return build_stream(seed=16, events=3_000, batch_events=128, trips=20)


def _snapshot_sha(session):
    payload = json.dumps(session.snapshot(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("config", sorted(GOLDEN_SNAPSHOTS))
def test_snapshot_bytes_are_pinned(config):
    delay, max_blocks, backward_only = config
    stream = _golden_stream()
    session = TenantSession(
        "golden",
        stream.program,
        delay=delay,
        max_blocks=max_blocks,
        count_backward_arrivals_only=backward_only,
    )
    batches = stream_batches(stream)
    snapshots = {}
    for number, batch in enumerate(batches, start=1):
        session.ingest(batch)
        if number in GOLDEN_SNAPSHOTS[config]:
            assert _snapshot_sha(session) == GOLDEN_SNAPSHOTS[config][number]
            snapshots[number] = session.snapshot()
    session.close()
    expected = session.outcome()

    for number, snapshot in snapshots.items():
        restored = TenantSession.restore(stream.program, snapshot)
        for batch in batches[number:]:
            restored.ingest(batch)
        restored.close()
        outcome = restored.outcome()
        assert np.array_equal(outcome.predicted_ids, expected.predicted_ids)
        assert np.array_equal(
            outcome.prediction_times, expected.prediction_times
        )
        assert np.array_equal(outcome.captured, expected.captured)
        assert outcome.counter_space == expected.counter_space
        assert outcome.profiling_ops == expected.profiling_ops
