"""PredictionServer: lifecycle, sharding, budget eviction, stats."""

import numpy as np
import pytest

from repro.errors import (
    DrainingError,
    ServingError,
    TraceError,
    WireFormatError,
)
from repro.serving import (
    PredictionServer,
    ServerConfig,
    TenantSession,
    encode_batch,
)
from repro.serving.loadgen import build_stream, standalone_outcome
from repro.trace.batch import EventBatch
from tests.serving.wire_oracle import stream_batches

DELAY = 10


def _stream(seed=11):
    return build_stream(seed=seed, events=2_000, batch_events=128, trips=20)


def _replay(server, tenant_id, stream):
    selections = []
    for payload in stream.payloads:
        selections.extend(server.ingest(tenant_id, payload).selections)
    report = server.close_tenant(tenant_id)
    return selections + list(report.selections), report


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_single_tenant_matches_standalone():
    stream = _stream()
    server = PredictionServer(ServerConfig(num_shards=4, delay=DELAY))
    server.open_tenant("t0", stream.program)
    selections, report = _replay(server, "t0", stream)
    offline = standalone_outcome(stream, delay=DELAY)
    assert np.array_equal(report.outcome.predicted_ids, offline.predicted_ids)
    assert np.array_equal(
        report.outcome.prediction_times, offline.prediction_times
    )
    assert report.outcome.counter_space == offline.counter_space
    assert [s.path_id for s in selections] == list(offline.predicted_ids)
    assert report.events_ingested == stream.num_events


def test_wire_payload_path_matches_in_process():
    """The server's decode-and-dispatch adds nothing to a session fed
    the same batches in-process."""
    stream = _stream()
    server = PredictionServer(ServerConfig(num_shards=2, delay=DELAY))
    server.open_tenant("t", stream.program)
    served, report = _replay(server, "t", stream)
    session = TenantSession("t", stream.program, delay=DELAY)
    direct = []
    for batch in stream_batches(stream):
        direct.extend(session.ingest(batch))
    direct.extend(session.close())
    assert served == direct
    assert np.array_equal(
        report.outcome.predicted_ids, session.outcome().predicted_ids
    )
    assert report.events_ingested == session.events_ingested


def test_first_ingest_can_register_the_program():
    stream = _stream()
    server = PredictionServer(ServerConfig(delay=DELAY))
    server.open_tenant("lazy", stream.program)
    result = server.ingest("lazy", stream.payloads[0])
    assert result.seq == 0
    assert server.close_tenant("lazy").batches_ingested == 1


def test_unknown_tenant_rejected():
    server = PredictionServer()
    with pytest.raises(ServingError, match="unknown tenant"):
        server.ingest("ghost", encode_batch(EventBatch.empty()))
    with pytest.raises(ServingError, match="unknown tenant"):
        server.close_tenant("ghost")


def test_closed_tenant_rejects_reuse():
    stream = _stream()
    server = PredictionServer(ServerConfig(delay=DELAY))
    server.open_tenant("t", stream.program)
    server.ingest("t", stream.payloads[0])
    server.close_tenant("t")
    # The slot is released entirely: the id is unknown again and can be
    # reopened as a fresh tenant.
    with pytest.raises(ServingError, match="unknown tenant"):
        server.ingest("t", stream.payloads[0])
    server.open_tenant("t", stream.program)
    assert server.ingest("t", stream.payloads[0]).seq == 0
    server.close_tenant("t")


def test_corrupt_wire_payload_is_typed_and_harmless():
    stream = _stream()
    server = PredictionServer(ServerConfig(delay=DELAY))
    server.open_tenant("t", stream.program)
    with pytest.raises(WireFormatError):
        server.ingest("t", stream.payloads[0][:-3])
    # The failure happened before admission; the stream is intact.
    assert server.ingest("t", stream.payloads[0]).seq == 0
    server.close_tenant("t")


def test_poisoned_stream_rejects_after_apply_failure():
    stream = _stream()
    server = PredictionServer(ServerConfig(delay=DELAY))
    server.open_tenant("t", stream.program)
    server.ingest("t", stream.payloads[0])
    # Replaying from the start breaks stream continuity: the extractor
    # raises mid-apply and the tenant is poisoned, not wedged.
    bogus = encode_batch(EventBatch([999_999], [999_998], [1], [False]))
    with pytest.raises(TraceError, match="does not match"):
        server.ingest("t", bogus)
    with pytest.raises(ServingError, match="poisoned"):
        server.ingest("t", stream.payloads[1])
    report = server.close_tenant("t")
    assert report.batches_ingested == 1


def test_shard_routing_is_stable_and_total():
    server = PredictionServer(ServerConfig(num_shards=8))
    indices = {server.shard_index(f"tenant-{i}") for i in range(200)}
    assert indices <= set(range(8))
    assert len(indices) > 1, "200 tenants must spread across shards"
    assert server.shard_index("tenant-7") == server.shard_index("tenant-7")


def test_stats_aggregate_across_shards():
    streams = [_stream(seed=11), _stream(seed=12)]
    server = PredictionServer(ServerConfig(num_shards=4, delay=DELAY))
    for index, stream in enumerate(streams):
        server.open_tenant(f"t{index}", stream.program)
        for payload in stream.payloads:
            server.ingest(f"t{index}", payload)
    stats = server.stats()
    assert stats["tenants_opened"] == 2
    assert stats["ingested_events"] == sum(s.num_events for s in streams)
    assert stats["resident_tenants"] == 2
    assert stats["state_bytes"] == server.state_bytes() > 0
    for index in range(2):
        server.close_tenant(f"t{index}")
    stats = server.stats()
    assert stats["tenants_closed"] == 2
    assert stats["resident_tenants"] == 0
    assert stats["state_bytes"] == 0


# ----------------------------------------------------------------------
# Memory budget / LRU eviction
# ----------------------------------------------------------------------
def test_idle_lru_tenant_evicted_over_budget_and_readmitted():
    stream = _stream()
    # One shard so both tenants compete for the same budget share; the
    # budget is below two resident sessions but above one.
    server = PredictionServer(
        ServerConfig(num_shards=1, delay=DELAY, memory_budget_bytes=1)
    )
    server.open_tenant("old", stream.program)
    server.open_tenant("new", stream.program)
    server.ingest("old", stream.payloads[0])
    assert server.resident_tenants() == 1
    # "new" ingests; "old" is idle and least recent -> evicted.
    server.ingest("new", stream.payloads[0])
    stats = server.stats()
    assert stats["evictions"] >= 1
    assert stats["evicted_bytes"] > 0
    assert server.resident_tenants() == 1
    # A later batch readmits "old" with a fresh session that re-warms.
    server.ingest("old", stream.payloads[1])
    assert server.stats()["readmissions"] >= 1
    report = server.close_tenant("old")
    assert report.evictions >= 1
    server.close_tenant("new")
    assert server.state_bytes() == 0


def test_unlimited_budget_never_evicts():
    stream = _stream()
    server = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    for index in range(6):
        server.open_tenant(f"t{index}", stream.program)
        server.ingest(f"t{index}", stream.payloads[0])
    assert server.resident_tenants() == 6
    assert server.stats()["evictions"] == 0


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_shards": 0},
        {"delay": -1},
        {"max_queued_events": 0},
        {"memory_budget_bytes": 0},
        {"retry_after_seconds": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ServingError):
        ServerConfig(**kwargs)


# ----------------------------------------------------------------------
# Drain (works the same without a state dir — just nothing to persist)
# ----------------------------------------------------------------------
def test_drain_stops_admissions_with_typed_rejection():
    stream = _stream()
    server = PredictionServer(
        ServerConfig(num_shards=2, delay=DELAY, retry_after_seconds=0.25)
    )
    server.open_tenant("t0", stream.program)
    server.ingest("t0", stream.payloads[0])
    server.drain(timeout=5.0)
    with pytest.raises(DrainingError) as excinfo:
        server.ingest("t0", stream.payloads[1])
    assert excinfo.value.retry_after_seconds == 0.25
    with pytest.raises(DrainingError):
        server.open_tenant("late", stream.program)
    # Closes are rejected too: a drained server hands its sessions to
    # the successor (via the state dir when durable) rather than
    # flushing reports mid-shutdown.
    with pytest.raises(DrainingError):
        server.close_tenant("t0")


def test_drain_is_idempotent():
    server = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    server.drain(timeout=5.0)
    server.drain(timeout=5.0)
    with pytest.raises(DrainingError):
        server.ingest("t0", encode_batch(EventBatch.empty()))
