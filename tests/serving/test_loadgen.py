"""Replay load generator: corpus determinism, end-to-end runs, metrics."""

import pytest

from repro.errors import ServingError
from repro.obs import Registry
from repro.serving import (
    LoadgenConfig,
    ServerConfig,
    build_corpus,
    build_stream,
    render_report,
    run_load,
)
from tests.serving.wire_oracle import stream_batches


def test_build_stream_is_deterministic_and_loaded():
    a = build_stream(seed=5, events=1_000, batch_events=64, trips=10)
    b = build_stream(seed=5, events=1_000, batch_events=64, trips=10)
    assert a.name == b.name
    assert a.num_events == b.num_events == 1_000
    assert a.payloads == b.payloads
    assert sum(len(batch) for batch in stream_batches(a)) == 1_000


def test_build_stream_probes_past_short_walks():
    # Seed 2 walks straight to the exit in a couple of transfers; the
    # builder must land on a derived seed that sustains the load.
    stream = build_stream(seed=2, events=1_000, batch_events=64, trips=10)
    assert stream.num_events == 1_000


def test_run_load_replays_every_tenant(tmp_path):
    config = LoadgenConfig(
        num_tenants=12,
        num_streams=3,
        events_per_tenant=1_000,
        batch_events=128,
        workers=3,
        seed=7,
        server=ServerConfig(num_shards=4, delay=10),
    )
    corpus = build_corpus(config)
    registry = Registry()
    report = run_load(config, obs=registry, corpus=corpus)
    assert report.tenants == 12
    assert report.streams == 3
    assert report.events == 12 * 1_000 == sum(
        corpus[i % 3].num_events for i in range(12)
    )
    assert report.shed_batches == 0
    assert report.predictions > 0
    assert report.p99_latency_ms >= report.p50_latency_ms >= 0.0
    assert report.events_per_sec > 0
    counters = registry.snapshot()["counters"]
    assert counters["serving.ingested_events"] == report.events
    assert counters["serving.tenants_closed"] == 12
    assert counters["loadgen.events"] == report.events
    rendered = render_report(report)
    assert "events/sec" in rendered and "ingest p99" in rendered
    payload = report.to_dict()
    assert payload["tenants"] == 12
    assert payload["server_stats"]["ingested_batches"] == report.batches


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_tenants": 0},
        {"num_streams": 0},
        {"events_per_tenant": 0},
        {"batch_events": 0},
        {"workers": 0},
    ],
)
def test_loadgen_config_validation(kwargs):
    with pytest.raises(ServingError):
        LoadgenConfig(**kwargs)
