"""Deterministic concurrency tests for the prediction server.

No ``time.sleep`` synchronization anywhere: orderings are forced with
``threading.Event``/``threading.Barrier`` through the server's
``admit_hook``/``apply_hook`` instrumentation points, so every test
either proves its interleaving or deadlocks into the suite's SIGALRM
ceiling (conftest) — never passes by luck.
"""

import threading

import numpy as np
import pytest

from repro.errors import BackpressureError
from repro.serving import PredictionServer, ServerConfig
from repro.serving.loadgen import build_stream, standalone_outcome
from tests.serving.wire_oracle import stream_batches

DELAY = 10


@pytest.fixture(scope="module")
def stream():
    return build_stream(seed=11, events=2_000, batch_events=128, trips=20)


@pytest.fixture(scope="module")
def offline(stream):
    return standalone_outcome(stream, delay=DELAY)


def _run_threads(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ----------------------------------------------------------------------
# Same-shard concurrent ingest
# ----------------------------------------------------------------------
def test_same_shard_concurrent_tenants_stay_isolated(stream, offline):
    """Eight tenants race batch-by-batch into ONE shard; every tenant's
    outcome must equal the standalone run regardless of interleaving."""
    server = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    tenant_ids = [f"race-{i}" for i in range(8)]
    for tid in tenant_ids:
        server.open_tenant(tid, stream.program)
    barrier = threading.Barrier(len(tenant_ids))
    errors = []

    def replay(tid):
        try:
            barrier.wait()
            for payload in stream.payloads:
                server.ingest(tid, payload)
        except BaseException as error:  # pragma: no cover - fail loud
            errors.append(error)

    _run_threads(
        [
            threading.Thread(target=replay, args=(tid,), daemon=True)
            for tid in tenant_ids
        ]
    )
    assert not errors
    for tid in tenant_ids:
        outcome = server.close_tenant(tid).outcome
        assert np.array_equal(outcome.predicted_ids, offline.predicted_ids)
        assert np.array_equal(
            outcome.prediction_times, offline.prediction_times
        )
        assert outcome.counter_space == offline.counter_space


def test_turnstile_applies_one_tenants_batches_in_admission_order(
    stream, offline
):
    """Two carrier threads race the same tenant's batches: the second is
    provably admitted while the first is still mid-apply, yet batches
    apply strictly in admission order and the outcome is exact."""
    applying = threading.Event()
    release = threading.Event()
    admitted_second = threading.Event()
    apply_order = []

    def apply_hook(tenant_id, batch):
        apply_order.append(len(batch))
        if len(apply_order) == 1:
            applying.set()
            assert release.wait(timeout=60)

    def admit_hook(tenant_id, seq):
        if seq == 1:
            admitted_second.set()

    server = PredictionServer(
        ServerConfig(num_shards=1, delay=DELAY),
        admit_hook=admit_hook,
        apply_hook=apply_hook,
    )
    server.open_tenant("fifo", stream.program)
    first, second = stream.payloads[0], stream.payloads[1]

    t1 = threading.Thread(
        target=server.ingest, args=("fifo", first), daemon=True
    )
    t2 = threading.Thread(
        target=server.ingest, args=("fifo", second), daemon=True
    )
    t1.start()
    assert applying.wait(timeout=60)  # batch 0 is mid-apply
    t2.start()
    assert admitted_second.wait(timeout=60)  # batch 1 admitted, waiting
    release.set()
    t1.join()
    t2.join()
    batches = stream_batches(stream)
    assert apply_order == [len(batches[0]), len(batches[1])]
    for payload in stream.payloads[2:]:
        server.ingest("fifo", payload)
    outcome = server.close_tenant("fifo").outcome
    assert np.array_equal(outcome.predicted_ids, offline.predicted_ids)


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_full_queue_rejects_immediately_while_apply_is_blocked(stream):
    """While one batch is wedged mid-apply, an ingest that would
    overflow the tenant's queue is rejected instantly (admission never
    waits on the state lock) with a typed retry-after error."""
    first = stream.payloads[0]
    capacity = len(stream_batches(stream)[0])  # exactly one batch fits
    applying = threading.Event()
    release = threading.Event()

    def apply_hook(tenant_id, batch):
        applying.set()
        assert release.wait(timeout=60)

    server = PredictionServer(
        ServerConfig(
            num_shards=1,
            delay=DELAY,
            max_queued_events=capacity,
            retry_after_seconds=0.25,
        ),
        apply_hook=apply_hook,
    )
    server.open_tenant("slow", stream.program)
    carrier = threading.Thread(
        target=server.ingest, args=("slow", first), daemon=True
    )
    carrier.start()
    assert applying.wait(timeout=60)

    with pytest.raises(BackpressureError) as rejected:
        server.ingest("slow", stream.payloads[1])
    assert rejected.value.tenant_id == "slow"
    assert rejected.value.queued_events == capacity
    assert rejected.value.capacity == capacity
    assert rejected.value.retry_after_seconds == 0.25
    assert server.stats()["rejects"] == 1

    release.set()
    carrier.join()
    # The queue drained; the rejected batch is welcome on retry.
    assert server.ingest("slow", stream.payloads[1]).seq == 1
    server.close_tenant("slow")


def test_backpressure_never_rejects_within_capacity(stream):
    server = PredictionServer(
        ServerConfig(
            num_shards=1,
            delay=DELAY,
            max_queued_events=stream.num_events,
        )
    )
    server.open_tenant("fits", stream.program)
    for payload in stream.payloads:
        server.ingest("fits", payload)
    assert server.stats()["rejects"] == 0
    server.close_tenant("fits")


# ----------------------------------------------------------------------
# Eviction / readmission under concurrency
# ----------------------------------------------------------------------
def test_eviction_and_readmission_while_other_tenant_applies(stream):
    """The LRU victim is evicted while another tenant's batch holds the
    state lock mid-apply; the victim is readmitted afterwards and keeps
    streaming from where it was evicted."""
    applying = threading.Event()
    release = threading.Event()

    def apply_hook(tenant_id, batch):
        if tenant_id == "busy" and not applying.is_set():
            applying.set()
            assert release.wait(timeout=60)

    server = PredictionServer(
        ServerConfig(num_shards=1, delay=DELAY, memory_budget_bytes=1),
        apply_hook=apply_hook,
    )
    server.open_tenant("victim", stream.program)
    server.open_tenant("busy", stream.program)
    server.ingest("victim", stream.payloads[0])  # resident, then idle

    carrier = threading.Thread(
        target=server.ingest, args=("busy", stream.payloads[0]), daemon=True
    )
    carrier.start()
    assert applying.wait(timeout=60)
    # "busy" is mid-apply under the state lock; eviction happens at its
    # post-apply bookkeeping, after release.
    release.set()
    carrier.join()
    assert server.stats()["evictions"] >= 1
    assert server.resident_tenants() == 1  # victim's session is gone

    # Readmission: the victim continues its stream mid-flight.
    server.ingest("victim", stream.payloads[1])
    assert server.stats()["readmissions"] == 1
    report = server.close_tenant("victim")
    assert report.evictions == 1
    batches = stream_batches(stream)
    assert report.events_ingested == len(batches[0]) + len(batches[1])
    server.close_tenant("busy")
    assert server.state_bytes() == 0


def test_tenant_with_queued_work_is_never_evicted(stream):
    """Budget pressure must not evict a tenant with admitted-but-
    unapplied work.  White-box on purpose: the shard state lock
    serializes applies, so the exact window (another tenant's post-apply
    bookkeeping racing a queued batch) cannot be forced deterministically
    through the public API — instead the protected states are staged
    directly and the eviction pass is invoked as post-apply would."""
    server = PredictionServer(
        ServerConfig(num_shards=1, delay=DELAY, memory_budget_bytes=1)
    )
    server.open_tenant("queued", stream.program)
    server.open_tenant("inflight", stream.program)
    server.ingest("queued", stream.payloads[0])
    shard = server._shards[0]
    with shard.cond:
        # Stage admitted-but-unapplied work on the LRU tenant.
        shard.tenants["queued"].queued_events = 64
    # The sibling's ingest runs the real post-apply eviction pass over
    # budget — the protected tenant must survive it.
    server.ingest("inflight", stream.payloads[0])
    assert server.stats()["evictions"] == 0, "soft budget under load"
    assert server.resident_tenants() == 2
    with shard.cond:
        shard.tenants["queued"].queued_events = 0  # work drained
    server.ingest("inflight", stream.payloads[1])
    assert server.stats()["evictions"] == 1
    assert server.resident_tenants() == 1
