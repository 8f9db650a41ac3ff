"""Times the sweep engine on the Figure 2 sweep: cold-serial vs
cold-parallel vs warm-cache, plus the observability overhead.

One full-scale sweep is 9 benchmarks × 17 delays × 2 schemes = 306
trace replays, historically the repo's hottest path.  This bench runs
it three ways — serial replays, replays on a two-thread pool, and a
rerun served entirely from the on-disk result cache — asserts all three
produce identical points, and records the timings in
``benchmarks/results/sweep_engine.txt``.

A second measurement times the same serial sweep with a live metrics
``Registry`` attached (the ``--metrics-json`` configuration) against
the default null-registry run, and reports the overhead percentage.
Observability is designed to publish at cell granularity, never per
occurrence, so the overhead must stay in the low single digits.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_FLOW_SCALE, emit, emit_json

from repro.experiments.engine import SweepCache, run_sweep, trace_digest
from repro.experiments.report import fmt, render_table
from repro.obs import Registry

#: Thread-pool size for the cold-parallel leg.
WORKERS = 2

#: On a multi-core box the thread pool must pay for itself: two threads
#: at least 1.2x faster than cold serial.  Cells spend most of their
#: time in NumPy, which releases the GIL.
MIN_PARALLEL_SPEEDUP_MULTI_CORE = 1.2

#: On a single-core container true parallel speedup is physically
#: impossible (two threads timeshare one CPU); the bar is instead a
#: regression guard on pool overhead.
MIN_PARALLEL_SPEEDUP_SINGLE_CORE = 0.6

#: Generous ceiling for the observed-run overhead (the acceptance bar
#: is < 5%; the assert leaves headroom so a noisy machine cannot flake).
MAX_OBS_OVERHEAD_PERCENT = 25.0


def _timed(runner) -> tuple[float, list]:
    start = time.perf_counter()
    points = runner()
    return time.perf_counter() - start, points


def test_sweep_engine(full_traces, results_dir, engine_cache_dir):
    cache = SweepCache(engine_cache_dir / "figure2")

    # Digests, NET's head-arrival ranks, the occurrence index and the
    # per-path columns are memoized per trace: whichever leg computes
    # them first would otherwise eat the whole bill and skew its timing
    # (the cache legs need digests; every leg replays both schemes).
    # Pay them once, as setup, so every leg measures only its own work.
    for trace in full_traces.values():
        trace_digest(trace)
        trace.head_arrival_ranks()
        trace.occurrence_index()
        trace.static_columns()

    serial_s, serial = _timed(lambda: run_sweep(full_traces))
    registry = Registry()
    observed_s, observed = _timed(
        lambda: run_sweep(full_traces, obs=registry)
    )
    parallel_s, parallel = _timed(
        lambda: run_sweep(full_traces, workers=WORKERS)
    )
    cold_s, cold = _timed(lambda: run_sweep(full_traces, cache=cache))
    warm_s, warm = _timed(lambda: run_sweep(full_traces, cache=cache))

    assert observed == serial  # metrics never change results
    assert parallel == serial
    assert cold == serial
    assert warm == serial

    overhead_percent = 100.0 * (observed_s / serial_s - 1.0)
    assert overhead_percent < MAX_OBS_OVERHEAD_PERCENT
    counters = registry.snapshot()["counters"]
    assert counters["sweep.cells_replayed"] == len(serial)
    # The warm leg replayed nothing: every cell was a cache hit.
    cells = len(serial)
    assert cache.stats.hits == cells
    assert cache.stats.misses == cells  # all from the cold leg
    assert cache.stats.stores == cells

    cpu_count = os.cpu_count() or 1
    parallel_speedup = serial_s / parallel_s
    min_parallel_speedup = (
        MIN_PARALLEL_SPEEDUP_MULTI_CORE
        if cpu_count >= WORKERS
        else MIN_PARALLEL_SPEEDUP_SINGLE_CORE
    )
    # Only hold the full calibrated workload to the speedup bar: at
    # smoke scale per-batch overhead dominates the replay work.
    if BENCH_FLOW_SCALE >= 1.0:
        assert parallel_speedup >= min_parallel_speedup, (
            f"cold parallel (workers={WORKERS}) ran at "
            f"{parallel_speedup:.2f}x cold serial on {cpu_count} CPU(s); "
            f"the floor is {min_parallel_speedup:.2f}x"
        )

    rows = [
        ["cold serial (null registry)", fmt(serial_s, 2), fmt(1.0, 2)],
        ["cold serial + metrics", fmt(observed_s, 2),
         fmt(serial_s / observed_s, 2)],
        [f"cold parallel ({WORKERS} threads)", fmt(parallel_s, 2),
         fmt(parallel_speedup, 2)],
        ["cold serial + cache fill", fmt(cold_s, 2),
         fmt(serial_s / cold_s, 2)],
        ["warm cache", fmt(warm_s, 2), fmt(serial_s / warm_s, 2)],
    ]
    emit(
        results_dir,
        "sweep_engine",
        render_table(
            headers=["mode", "seconds", "speedup vs cold serial"],
            rows=rows,
            title=(
                f"Sweep engine: Figure 2 sweep ({cells} cells), "
                "cold vs parallel vs warm-cache vs observed"
            ),
        )
        + f"\nmetrics overhead: {overhead_percent:+.2f}% "
        "(observed vs null registry)"
        + f"\n{cache.stats.render()}",
    )
    emit_json(
        results_dir,
        "sweep",
        {
            "cells": cells,
            "cpu_count": cpu_count,
            "flow_scale": BENCH_FLOW_SCALE,
            "workers": WORKERS,
            "min_parallel_speedup": min_parallel_speedup,
            "speedup_gate_applied": BENCH_FLOW_SCALE >= 1.0,
            "modes": {
                "cold_serial": {"seconds": serial_s, "speedup": 1.0},
                "cold_serial_observed": {
                    "seconds": observed_s,
                    "speedup": serial_s / observed_s,
                },
                "cold_parallel": {
                    "seconds": parallel_s,
                    "speedup": parallel_speedup,
                },
                "cold_serial_cache_fill": {
                    "seconds": cold_s,
                    "speedup": serial_s / cold_s,
                },
                "warm_cache": {
                    "seconds": warm_s,
                    "speedup": serial_s / warm_s,
                },
            },
            "overheads_percent": {"metrics": overhead_percent},
        },
    )
