"""Replay load generator for the prediction server.

Replays the workload corpus as many interleaved tenant streams: a small
set of distinct *streams* (seeded generated programs walked into
columnar event batches, held as their wire payloads) is fanned out
across hundreds-to-thousands of tenants, driven by a pool of client
threads.  Each worker owns a disjoint slice of the tenants and
round-robins their batches, so the server sees the many-tenant
interleaving a fleet would produce while every individual stream stays
in order.

Measurements are per-ingest wall latency (p50/p99), end-to-end events
and predictions per second, and backpressure retry counts; everything
lands in a :class:`LoadReport` and, via ``publish``, in the
``repro.obs`` registry/run-manifest machinery (``serving.*`` for the
server's own accounting, ``loadgen.*`` for the client side).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cfg.analysis import procedure_loops
from repro.cfg.generators import generate_program
from repro.cfg.program import Program
from repro.errors import BackpressureError, DrainingError, ServingError
from repro.obs.core import Registry, get_registry
from repro.prediction.net import NETPredictor
from repro.serving.server import PredictionServer, ServerConfig
from repro.serving.wire import (
    BYTES_PER_EVENT,
    HEADER_BYTES,
    decode_batch,
    encode_batch,
)
from repro.trace.batch import EventBatch
from repro.trace.recorder import record_path_trace
from repro.trace.walker import CFGWalker, RandomOracle, TripCountOracle

#: Loop trip count hint for the corpus oracles.
TRIPS = 25

#: Retries a worker grants one batch under backpressure before counting
#: it as shed.
MAX_RETRIES = 50


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run."""

    #: Concurrent tenants replayed against the server.
    num_tenants: int = 200
    #: Distinct underlying streams (tenant ``i`` replays stream
    #: ``i % num_streams`` under its own identity and private state).
    num_streams: int = 4
    #: Events per tenant stream.
    events_per_tenant: int = 2_000
    #: Events per ingest batch.
    batch_events: int = 256
    #: Client threads driving the replay.
    workers: int = 4
    #: Base seed for corpus generation.
    seed: int = 7
    #: Server configuration for the run.
    server: ServerConfig = field(default_factory=ServerConfig)

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ServingError("num_tenants must be positive")
        if self.num_streams < 1:
            raise ServingError("num_streams must be positive")
        if self.events_per_tenant < 1:
            raise ServingError("events_per_tenant must be positive")
        if self.batch_events < 1:
            raise ServingError("batch_events must be positive")
        if self.workers < 1:
            raise ServingError("workers must be positive")


@dataclass(frozen=True)
class TenantStream:
    """One replayable stream: a program plus its batch payloads."""

    name: str
    program: Program
    payloads: tuple[bytes, ...]

    @property
    def num_events(self) -> int:
        return sum(
            (len(payload) - HEADER_BYTES) // BYTES_PER_EVENT
            for payload in self.payloads
        )


@dataclass(frozen=True)
class LoadReport:
    """Results of one load-generation run."""

    tenants: int
    streams: int
    events: int
    batches: int
    predictions: int
    elapsed_seconds: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_latency_ms: float
    backpressure_retries: int
    shed_batches: int
    server_stats: dict

    @property
    def events_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events / self.elapsed_seconds

    @property
    def predictions_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.predictions / self.elapsed_seconds

    def to_dict(self) -> dict:
        """JSON-ready rendering (the BENCH/manifest payload)."""
        return {
            "tenants": self.tenants,
            "streams": self.streams,
            "events": self.events,
            "batches": self.batches,
            "predictions": self.predictions,
            "elapsed_seconds": self.elapsed_seconds,
            "events_per_sec": self.events_per_sec,
            "predictions_per_sec": self.predictions_per_sec,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "max_latency_ms": self.max_latency_ms,
            "backpressure_retries": self.backpressure_retries,
            "shed_batches": self.shed_batches,
            "server_stats": {
                key: value for key, value in self.server_stats.items()
            },
        }


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def _walk_seed(
    seed: int, events: int, batch_events: int, trips: int
) -> tuple[Program, tuple[EventBatch, ...]]:
    program = generate_program(seed=seed, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    oracle = TripCountOracle(
        RandomOracle(seed * 7919 + 13, default_bias=0.5), trip_counts
    )
    walker = CFGWalker(program, oracle)
    batches = tuple(
        walker.walk_batched(
            max_events=events, batch_size=batch_events, truncate=True
        )
    )
    return program, batches


def build_stream(
    seed: int, events: int, batch_events: int, trips: int = TRIPS
) -> TenantStream:
    """Generate one replayable stream from a seeded program walk.

    Generated programs are data-dependent: some seeds walk straight to
    the exit in a handful of transfers.  The builder deterministically
    probes ``seed``-derived candidates until one sustains the requested
    event count (keeping the longest walk seen as a fallback), so every
    stream in a corpus carries real load.
    """
    best: tuple[Program, tuple[EventBatch, ...]] | None = None
    best_events = -1
    for attempt in range(32):
        candidate = seed + attempt * 1009
        program, batches = _walk_seed(
            candidate, events, batch_events, trips
        )
        walked = sum(len(batch) for batch in batches)
        if walked > best_events:
            best, best_events, seed_used = (program, batches), walked, candidate
        if walked >= events:
            break
    program, batches = best
    return TenantStream(
        name=f"gen:{seed_used}",
        program=program,
        payloads=tuple(encode_batch(batch) for batch in batches),
    )


def build_corpus(config: LoadgenConfig) -> list[TenantStream]:
    """The distinct streams a run replays (built once, shared)."""
    return [
        build_stream(
            seed=config.seed + index,
            events=config.events_per_tenant,
            batch_events=config.batch_events,
        )
        for index in range(config.num_streams)
    ]


def standalone_outcome(stream: TenantStream, delay: int, max_blocks=256):
    """Reference outcome of one stream run alone through NET offline.

    What the server must reproduce per tenant regardless of
    interleaving — used by the verification tests and by ``run_load``'s
    spot check.
    """
    trace = record_path_trace(
        stream.program,
        map(decode_batch, stream.payloads),
        max_blocks=max_blocks,
    )
    return NETPredictor(delay).run(trace)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class _WorkerState:
    __slots__ = ("latencies", "predictions", "retries", "shed", "error")

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.predictions = 0
        self.retries = 0
        self.shed = 0
        self.error: BaseException | None = None


def _replay_worker(
    server: PredictionServer,
    corpus: list[TenantStream],
    tenant_ids: list[str],
    state: _WorkerState,
    start_barrier: threading.Barrier,
) -> None:
    try:
        # Open every owned tenant up front, then round-robin batches
        # across them so the server sees interleaved streams.
        streams = {
            tid: corpus[int(tid.split("-")[-1]) % len(corpus)]
            for tid in tenant_ids
        }
        # Durable servers take explicit sequence numbers (the batch's
        # index within its stream) so a crash-interrupted load test can
        # resume exactly-once; in-memory runs keep the auto-seq path.
        explicit_seq = server.durable
        for tid, stream in streams.items():
            server.open_tenant(tid, stream.program, program_name=stream.name)
        cursors = {tid: 0 for tid in tenant_ids}
        start_barrier.wait()
        live = list(tenant_ids)
        while live:
            finished = []
            for tid in live:
                stream = streams[tid]
                index = cursors[tid]
                if index >= len(stream.payloads):
                    finished.append(tid)
                    continue
                payload = stream.payloads[index]
                attempts = 0
                while True:
                    started = time.perf_counter()
                    try:
                        result = server.ingest(
                            tid,
                            payload,
                            seq=index if explicit_seq else None,
                        )
                    except (BackpressureError, DrainingError) as pushback:
                        attempts += 1
                        state.retries += 1
                        if attempts > MAX_RETRIES:
                            state.shed += 1
                            break
                        time.sleep(pushback.retry_after_seconds)
                        continue
                    state.latencies.append(
                        time.perf_counter() - started
                    )
                    state.predictions += len(result.selections)
                    break
                cursors[tid] = index + 1
            for tid in finished:
                live.remove(tid)
    except BaseException as error:  # surfaced by run_load
        state.error = error


def run_load(
    config: LoadgenConfig | None = None,
    obs: Registry | None = None,
    corpus: list[TenantStream] | None = None,
    state_dir: str | None = None,
) -> LoadReport:
    """Run one load-generation session against a fresh server.

    Builds (or reuses) the stream corpus, replays it as
    ``config.num_tenants`` interleaved tenants from
    ``config.workers`` threads, closes every tenant, and returns the
    measured :class:`LoadReport`.  With ``obs`` set, the server's
    accounting is published under ``serving.*`` and the client-side
    measurements under ``loadgen.*``.  With ``state_dir``, the server
    runs durably (checkpoints + WAL) and batches carry explicit
    sequence numbers.
    """
    config = config if config is not None else LoadgenConfig()
    registry = get_registry(obs)
    with registry.span("loadgen.corpus"):
        if corpus is None:
            corpus = build_corpus(config)
    server = PredictionServer(config.server, state_dir=state_dir)

    tenant_ids = [f"tenant-{i}" for i in range(config.num_tenants)]
    workers = min(config.workers, config.num_tenants)
    slices: list[list[str]] = [[] for _ in range(workers)]
    for index, tid in enumerate(tenant_ids):
        slices[index % workers].append(tid)

    states = [_WorkerState() for _ in range(workers)]
    start_barrier = threading.Barrier(workers + 1)
    threads = [
        threading.Thread(
            target=_replay_worker,
            args=(server, corpus, slices[i], states[i], start_barrier),
            name=f"loadgen-{i}",
            daemon=True,
        )
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for state in states:
        if state.error is not None:
            raise state.error

    close_predictions = 0
    for tid in tenant_ids:
        report = server.close_tenant(tid)
        close_predictions += len(report.selections)

    latencies = np.asarray(
        [value for state in states for value in state.latencies]
    )
    predictions = (
        sum(state.predictions for state in states) + close_predictions
    )
    events = sum(
        corpus[i % len(corpus)].num_events
        for i in range(config.num_tenants)
    )
    shed = sum(state.shed for state in states)
    if shed:
        events = int(server.stats()["ingested_events"])
    batches = int(server.stats()["ingested_batches"])
    report = LoadReport(
        tenants=config.num_tenants,
        streams=len(corpus),
        events=events,
        batches=batches,
        predictions=predictions,
        elapsed_seconds=elapsed,
        p50_latency_ms=(
            float(np.percentile(latencies, 50) * 1e3)
            if len(latencies)
            else 0.0
        ),
        p99_latency_ms=(
            float(np.percentile(latencies, 99) * 1e3)
            if len(latencies)
            else 0.0
        ),
        max_latency_ms=(
            float(latencies.max() * 1e3) if len(latencies) else 0.0
        ),
        backpressure_retries=sum(state.retries for state in states),
        shed_batches=shed,
        server_stats=server.stats(),
    )
    server.close()

    if registry.enabled:
        server.publish(registry.child("serving"))
        client = registry.child("loadgen")
        client.counter("tenants").inc(report.tenants)
        client.counter("events").inc(report.events)
        client.counter("batches").inc(report.batches)
        client.counter("predictions").inc(report.predictions)
        client.counter("backpressure_retries").inc(
            report.backpressure_retries
        )
        client.gauge("events_per_sec").set(report.events_per_sec)
        client.gauge("predictions_per_sec").set(
            report.predictions_per_sec
        )
        client.gauge("p50_latency_ms").set(report.p50_latency_ms)
        client.gauge("p99_latency_ms").set(report.p99_latency_ms)
        client.timer("replay").observe(elapsed)
    return report


def render_report(report: LoadReport) -> str:
    """Human-readable summary of one load run."""
    lines = [
        f"tenants:             {report.tenants}",
        f"distinct streams:    {report.streams}",
        f"events ingested:     {report.events:,}",
        f"batches ingested:    {report.batches:,}",
        f"hot-path selections: {report.predictions:,}",
        f"elapsed:             {report.elapsed_seconds:.3f}s",
        f"events/sec:          {report.events_per_sec:,.0f}",
        f"predictions/sec:     {report.predictions_per_sec:,.0f}",
        f"ingest p50:          {report.p50_latency_ms:.3f} ms",
        f"ingest p99:          {report.p99_latency_ms:.3f} ms",
        f"ingest max:          {report.max_latency_ms:.3f} ms",
        f"backpressure retry:  {report.backpressure_retries}",
        f"shed batches:        {report.shed_batches}",
        f"evictions:           {int(report.server_stats['evictions'])}",
    ]
    return "\n".join(lines)
