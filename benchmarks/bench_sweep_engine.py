"""Times the sweep engine on the Figure 2 sweep: serial vs parallel vs
observed, plus a cache fill and a warm-cache rerun.

One sweep is 9 benchmarks × 17 delays × 2 schemes = 306 trace replays,
historically the repo's hottest path.  Three ways to replay it go
through :func:`conftest.time_alternating`: serial replays with the
default null registry, the same with a live metrics ``Registry``
attached (the ``--metrics-json`` configuration), and replays on a
two-thread pool.  The parallel floor and the observed-overhead ceiling
are judged on the median per-round ratio.  A cold cache fill (which
also digests each trace) and a warm rerun served entirely from the
on-disk result cache are timed once each; no gate reads them.  Every
leg must produce identical points.  Observability is designed to
publish at cell granularity, never per occurrence, so its overhead
must stay in the low single digits.
"""

from __future__ import annotations

import os
import time

from conftest import (
    ROUNDS,
    emit,
    emit_json,
    pair_ratios,
    quartiles,
    render_spread,
    time_alternating,
)

from repro.experiments.engine import SweepCache, run_sweep
from repro.experiments.report import fmt, render_table
from repro.obs import Registry

#: Thread-pool size for the parallel leg.
WORKERS = 2

#: On a multi-core box the thread pool must pay for itself: two threads
#: at least 1.2x faster than serial.  Cells spend most of their time in
#: NumPy, which releases the GIL.
MIN_PARALLEL_SPEEDUP_MULTI_CORE = 1.2

#: On a single-core container true parallel speedup is physically
#: impossible (two threads timeshare one CPU); the bar is instead a
#: regression guard on pool overhead.
MIN_PARALLEL_SPEEDUP_SINGLE_CORE = 0.6

#: Generous ceiling for the observed-run overhead (the acceptance bar
#: is < 5%; the assert leaves headroom so a noisy machine cannot flake).
MAX_OBS_OVERHEAD_PERCENT = 25.0


def test_sweep_engine(full_traces, results_dir, engine_cache_dir):
    cache = SweepCache(engine_cache_dir / "figure2")

    def observed():
        registry = Registry()
        return run_sweep(full_traces, obs=registry), registry

    results, seconds = time_alternating(
        {
            "serial": lambda: run_sweep(full_traces),
            "observed": observed,
            "parallel": lambda: run_sweep(full_traces, workers=WORKERS),
        }
    )
    serial = results["serial"]
    observed_points, registry = results["observed"]
    start = time.perf_counter()
    cold = run_sweep(full_traces, cache=cache)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_sweep(full_traces, cache=cache)
    warm_s = time.perf_counter() - start

    assert observed_points == serial  # metrics never change results
    assert results["parallel"] == serial
    assert cold == serial
    assert warm == serial

    overhead = quartiles(
        [
            100.0 * (ratio - 1.0)
            for ratio in pair_ratios(seconds["observed"], seconds["serial"])
        ]
    )
    assert overhead["median"] < MAX_OBS_OVERHEAD_PERCENT
    counters = registry.snapshot()["counters"]
    assert counters["sweep.cells_replayed"] == len(serial)
    # The warm leg replayed nothing: every cell was a cache hit.
    cells = len(serial)
    assert cache.stats.hits == cells
    assert cache.stats.misses == cells  # all from the cold leg
    assert cache.stats.stores == cells

    cpu_count = os.cpu_count() or 1
    speedups = {
        name: quartiles(pair_ratios(seconds["serial"], seconds[name]))
        for name in ("observed", "parallel")
    }
    speedup = speedups["parallel"]
    min_parallel_speedup = (
        MIN_PARALLEL_SPEEDUP_MULTI_CORE
        if cpu_count >= WORKERS
        else MIN_PARALLEL_SPEEDUP_SINGLE_CORE
    )
    assert speedup["median"] >= min_parallel_speedup, (
        f"parallel (workers={WORKERS}) ran at a median "
        f"{speedup['median']:.2f}x serial on {cpu_count} CPU(s); "
        f"the floor is {min_parallel_speedup:.2f}x"
    )

    modes = {name: quartiles(times) for name, times in seconds.items()}
    serial_s = modes["serial"]["median"]
    rows = [
        ["serial (null registry)", render_spread(modes["serial"], 3),
         fmt(1.0, 2)],
        ["serial + metrics", render_spread(modes["observed"], 3),
         render_spread(speedups["observed"], 2)],
        [f"parallel ({WORKERS} threads)", render_spread(modes["parallel"], 3),
         render_spread(speedup, 2)],
        ["serial + cache fill (once)", fmt(cold_s, 3),
         fmt(serial_s / cold_s, 2)],
        ["warm cache (once)", fmt(warm_s, 3), fmt(serial_s / warm_s, 2)],
    ]
    emit(
        results_dir,
        "sweep_engine",
        render_table(
            headers=["mode", "seconds", "speedup vs serial"],
            rows=rows,
            title=(
                f"Sweep engine: Figure 2 sweep ({cells} cells), median "
                f"(IQR) of {ROUNDS} alternating rounds unless run once"
            ),
        )
        + f"\nmetrics overhead: {overhead['median']:+.2f}% median "
        f"({overhead['q1']:+.2f}% to {overhead['q3']:+.2f}%, "
        "observed vs null registry, per round)"
        + f"\n{cache.stats.render()}",
    )
    emit_json(
        results_dir,
        "sweep",
        {
            "cells": cells,
            "cpu_count": cpu_count,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "min_parallel_speedup": min_parallel_speedup,
            "max_obs_overhead_percent": MAX_OBS_OVERHEAD_PERCENT,
            "seconds": modes,
            "once_seconds": {"cache_fill": cold_s, "warm_cache": warm_s},
            "parallel_speedup": speedup,
            "metrics_overhead_percent": overhead,
        },
    )
