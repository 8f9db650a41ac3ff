"""Multi-tenant online hot-path prediction serving.

The paper's predictor runs *inside* one program; this package runs it
*as a service* for many programs at once.  Each tenant (one running
program) streams wire-encoded event batches at a
:class:`PredictionServer`, which shards per-tenant NET predictor state
across locks, answers every batch with the hot-path selections it
triggered, pushes back explicitly when a tenant's bounded ingest queue
fills, and evicts idle predictor state LRU-first when the fleet exceeds
its memory budget — the "less is more" counter-space economy applied at
fleet scale.

Layers, bottom up:

- :mod:`repro.serving.wire` — the batch payload every layer carries,
  from client to WAL, and its digest.
- :mod:`repro.serving.session` — one tenant's streaming
  extraction + NET pipeline and its memory meter.
- :mod:`repro.serving.server` — sharded multi-tenant coordination:
  admission, backpressure, FIFO turnstiles, budget eviction.
- :mod:`repro.serving.durability` — per-shard checkpoint/WAL store
  making tenant streams crash-safe (snapshots, digest log, torn-tail
  recovery).
- :mod:`repro.serving.transport` — a thin TCP request/reply skin with
  exactly-once sequence numbers and bounded client retry.
- :mod:`repro.serving.loadgen` — the replay load generator driving
  hundreds of interleaved tenant streams for benchmarks and tests.
- :mod:`repro.serving.chaos` — the chaos harness proving recovered
  predictions byte-identical to an uninterrupted run.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "chaos": (
            "ChaosConfig",
            "ChaosReport",
            "default_plan",
            "render_chaos_report",
            "run_chaos",
            "schedule_steps",
        ),
        "durability": ("DurabilityStore", "TenantRecovery"),
        "loadgen": (
            "LoadgenConfig",
            "LoadReport",
            "TenantStream",
            "build_corpus",
            "build_stream",
            "render_report",
            "run_load",
            "standalone_outcome",
        ),
        "server": (
            "IngestResult",
            "PredictionServer",
            "ServerConfig",
            "TenantReport",
        ),
        "session": ("HotPathSelection", "TenantSession"),
        "transport": (
            "SEQ_AUTO",
            "ServingClient",
            "ServingTCPServer",
            "serve_until_drained",
            "start_background",
        ),
        "wire": (
            "BYTES_PER_EVENT",
            "HEADER_BYTES",
            "WIRE_MAGIC",
            "WIRE_VERSION",
            "batch_digest",
            "decode_batch",
            "encode_batch",
        ),
    },
)
