"""Times the columnar branch-event pipeline end to end.

The §4 overhead study replays one generated-program run through every
profiler.  The stream moves as numpy-column batches end to end:
``CFGWalker.walk_batched`` fills the buffers, ``record_path_trace``
segments them with vectorized cut-finding, and the profilers consume
them through their batch paths.

This bench times generation and segmentation+profiling, checks the
walker's ``tracegen.*`` counters against the batches it produced, and
records the throughput in ``benchmarks/results/event_pipeline.txt``
plus machine-readable ``BENCH_events.json``.  Equality with the
one-event-at-a-time reference (trace digests and overhead rows) is a
tier-1 check: ``tests/profiling/test_batch_profilers.py`` runs this
workload against the scalar oracles.
"""

from __future__ import annotations

import time

from conftest import emit, emit_json

from repro.cfg import generate_program, procedure_loops
from repro.experiments.report import fmt, render_table
from repro.obs import Registry
from repro.profiling import compare_schemes
from repro.trace import (
    CFGWalker,
    EventBatch,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)

#: Event budget; matches the §4 overhead study's stream.
MAX_EVENTS = 400_000

#: Workload knobs, matching ``overhead_rows``.
SEED = 25
TRIPS = 25


def _make_walker() -> tuple:
    program = generate_program(seed=SEED, num_procedures=4)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = TRIPS
    oracle = TripCountOracle(RandomOracle(5, default_bias=0.5), trip_counts)
    return program, CFGWalker(program, oracle)


def test_event_pipeline(results_dir):
    # Batched walker, vectorized extractor, batched profilers — with
    # live metrics attached.
    registry = Registry()
    program, walker = _make_walker()
    start = time.perf_counter()
    batches = list(
        walker.walk_batched(
            max_events=MAX_EVENTS, truncate=True, obs=registry
        )
    )
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    trace = record_path_trace(program, iter(batches))
    rows = compare_schemes(program, EventBatch.concat(batches))
    consume_s = time.perf_counter() - start

    num_events = sum(len(batch) for batch in batches)
    assert num_events > 0 and trace.flow > 0 and len(rows) == 6

    counters = registry.snapshot()["counters"]
    assert counters["tracegen.events"] == num_events
    assert counters["tracegen.batches"] == len(batches)

    emit(
        results_dir,
        "event_pipeline",
        render_table(
            headers=[
                "pipeline",
                "generate s",
                "segment+profile s",
                "events/sec",
            ],
            rows=[
                [
                    "columnar batches",
                    fmt(generate_s, 2),
                    fmt(consume_s, 2),
                    f"{num_events / consume_s:,.0f}",
                ]
            ],
            title=(
                f"Event pipeline over {num_events:,} events: "
                "segmentation into a PathTrace + all §4 profilers"
            ),
        ),
    )
    emit_json(
        results_dir,
        "events",
        {
            "events": num_events,
            "batches": len(batches),
            "modes": {
                "columnar": {
                    "generate_seconds": generate_s,
                    "seconds": consume_s,
                    "events_per_sec": num_events / consume_s,
                },
            },
        },
    )
