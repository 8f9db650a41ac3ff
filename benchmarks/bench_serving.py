"""Benchmark: multi-tenant serving throughput and ingest latency.

Replays the generated workload corpus as hundreds of interleaved tenant
streams against an in-process :class:`PredictionServer` (a wire
decode on every batch, as a deployment would pay), then writes
``BENCH_serving.json`` with the tenant count, end-to-end events/sec and
predictions/sec, and p50/p99/max ingest latency.

The run must sustain ``FULL_TENANTS`` (>= 200) concurrent tenants
above ``MIN_EVENTS_PER_SEC``.  Correctness rides along: one replayed
tenant is spot-checked byte-identical against the standalone offline
:class:`NETPredictor` on the same stream.  Durable serving (WAL,
checkpoints, crash and restore) is perfbench's ``serve-durable``
workload, not a leg of this bench.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import emit, emit_json
from repro.obs import Registry
from repro.prediction.net import NETPredictor
from repro.serving import (
    LoadgenConfig,
    PredictionServer,
    ServerConfig,
    decode_batch,
    render_report,
    run_load,
    standalone_outcome,
)
from repro.serving.loadgen import build_corpus
from repro.trace.recorder import record_path_trace

#: Concurrent tenants (the acceptance floor is 200).
FULL_TENANTS = 240

#: Events each tenant replays.
EVENTS_PER_TENANT = 4_000

#: Distinct underlying streams fanned out across the tenants.
NUM_STREAMS = 6

#: Gated end-to-end ingest floor.  The in-process run sustains ~1M
#: events/sec on a development container; the floor leaves generous
#: headroom for slower CI hardware.
MIN_EVENTS_PER_SEC = 100_000.0

DELAY = 50
SEED = 7


def test_serving_load(results_dir):
    config = LoadgenConfig(
        num_tenants=FULL_TENANTS,
        num_streams=NUM_STREAMS,
        events_per_tenant=EVENTS_PER_TENANT,
        batch_events=256,
        workers=4,
        seed=SEED,
        server=ServerConfig(num_shards=8, delay=DELAY),
    )
    corpus = build_corpus(config)
    registry = Registry()

    start = time.perf_counter()
    report = run_load(config, obs=registry, corpus=corpus)
    wall_s = time.perf_counter() - start

    # Spot check: replaying stream 0 through a fresh server alone must
    # reproduce the standalone offline NET outcome byte for byte.
    stream = corpus[0]
    server = PredictionServer(ServerConfig(num_shards=2, delay=DELAY))
    server.open_tenant("spot", stream.program)
    for payload in stream.payloads:
        server.ingest("spot", payload)
    served = server.close_tenant("spot").outcome
    offline = standalone_outcome(stream, delay=DELAY)
    assert served.scheme == offline.scheme
    assert np.array_equal(served.predicted_ids, offline.predicted_ids)
    assert np.array_equal(served.prediction_times, offline.prediction_times)
    assert np.array_equal(served.captured, offline.captured)
    assert served.counter_space == offline.counter_space
    assert served.profiling_ops == offline.profiling_ops
    # ... and the offline trace itself must match on volume.
    trace = record_path_trace(
        stream.program, map(decode_batch, stream.payloads)
    )
    assert served.predicted_ids.size == NETPredictor(DELAY).run(
        trace
    ).predicted_ids.size

    # Every tenant's full stream must have been ingested (no shedding
    # at benchmark concurrency) and the server must have predicted.
    assert report.tenants == FULL_TENANTS
    assert report.shed_batches == 0
    assert report.events == sum(
        corpus[i % len(corpus)].num_events for i in range(FULL_TENANTS)
    )
    assert report.predictions > 0
    assert report.p99_latency_ms >= report.p50_latency_ms
    counters = registry.snapshot()["counters"]
    assert counters["serving.ingested_events"] == report.events
    assert counters["serving.tenants_closed"] == FULL_TENANTS

    assert report.events_per_sec >= MIN_EVENTS_PER_SEC, (
        f"serving ingest {report.events_per_sec:,.0f} events/sec "
        f"is below the {MIN_EVENTS_PER_SEC:,.0f} floor"
    )

    text = "\n".join(
        [
            "Serving load benchmark",
            "----------------------",
            render_report(report),
            f"total wall (incl. close): {wall_s:.3f}s",
        ]
    )
    emit(results_dir, "serving", text)
    emit_json(
        results_dir,
        "serving",
        {
            "min_events_per_sec": MIN_EVENTS_PER_SEC,
            "delay": DELAY,
            "wall_seconds": wall_s,
            **report.to_dict(),
        },
    )
