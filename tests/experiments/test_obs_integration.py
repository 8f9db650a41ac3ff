"""Engine observability: what the sweep publishes, and that measuring
never changes results — serial, parallel, or cached."""

from __future__ import annotations

from repro.experiments import run_sweep
from repro.experiments.engine import SweepCache
from repro.experiments.engine.executor import CELL_TIMER_PREFIX
from repro.experiments.engine.planner import (
    AUTOTUNE_MAX_CHUNK,
    autotune_chunk_size,
)
from repro.obs import Registry

DELAYS = (10, 1_000)


def _pair(all_small_traces):
    return {
        name: all_small_traces[name] for name in ("compress", "deltablue")
    }


def test_sweep_counters_match_the_work_done(all_small_traces):
    traces = _pair(all_small_traces)
    registry = Registry()
    points = run_sweep(traces, delays=DELAYS, obs=registry)
    counters = registry.snapshot()["counters"]
    cells = len(traces) * 2 * len(DELAYS)  # benchmarks × schemes × delays
    assert counters["sweep.runs"] == 1
    assert counters["sweep.cells_total"] == cells
    assert counters["sweep.cells_replayed"] == cells
    assert counters["sweep.cells_cached"] == 0
    assert counters["sweep.prediction.outcomes"] == cells
    assert counters["sweep.prediction.predictions"] == sum(
        point.num_predicted for point in points
    )
    timers = registry.snapshot()["timers"]
    assert timers["sweep.total"]["count"] == 1
    assert timers["sweep.replay"]["count"] == cells


def test_worker_metrics_merge_to_serial_totals(all_small_traces):
    traces = _pair(all_small_traces)
    serial, parallel = Registry(), Registry()
    assert run_sweep(traces, delays=DELAYS, obs=serial) == run_sweep(
        traces, delays=DELAYS, workers=2, obs=parallel
    )
    # The batch count and the wall-clock histogram buckets differ by
    # mode; the *work* counters — replays, predictions, captured flow —
    # must not.
    def work_counters(registry: Registry) -> dict:
        return {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name != "sweep.batches"
            and not name.startswith("sweep.cell_ms_le_")
        }

    assert work_counters(parallel) == work_counters(serial)


def test_observed_sweep_is_byte_identical_and_counts_cache_traffic(
    all_small_traces, tmp_path
):
    traces = _pair(all_small_traces)
    baseline = run_sweep(traces, delays=DELAYS)

    registry = Registry()
    cache = SweepCache(
        tmp_path / "cache", obs=registry.child("sweep.cache")
    )
    cold = run_sweep(traces, delays=DELAYS, cache=cache, obs=registry)
    assert cold == baseline
    counters = registry.snapshot()["counters"]
    cells = len(cold)
    assert counters["sweep.cache.misses"] == cells
    assert counters["sweep.cache.stores"] == cells
    assert counters["sweep.cells_replayed"] == cells

    warm_registry = Registry()
    warm_cache = SweepCache(
        tmp_path / "cache", obs=warm_registry.child("sweep.cache")
    )
    warm = run_sweep(
        traces, delays=DELAYS, cache=warm_cache, obs=warm_registry
    )
    assert warm == baseline
    warm_counters = warm_registry.snapshot()["counters"]
    assert warm_counters["sweep.cache.hits"] == cells
    assert warm_counters["sweep.cells_cached"] == cells
    assert warm_counters.get("sweep.cells_replayed", 0) == 0


def test_run_sweep_records_cell_timers(all_small_traces):
    """Every replayed cell gets its own manifest timer and lands in the
    ``cell_ms`` distribution and its bucket counters."""
    traces = _pair(all_small_traces)
    registry = Registry()
    points = run_sweep(traces, delays=DELAYS, obs=registry)
    snapshot = registry.snapshot()
    cell_timers = [
        name
        for name in snapshot["timers"]
        if name.startswith("sweep." + CELL_TIMER_PREFIX)
    ]
    assert len(cell_timers) == len(points)
    assert snapshot["timers"]["sweep.cell_ms"]["count"] == len(points)
    buckets = [
        name
        for name in snapshot["counters"]
        if name.startswith("sweep.cell_ms_le_")
    ]
    assert buckets, "cell_ms histogram buckets missing from manifest"


def test_autotune_sizes_on_dirty_cells_only(all_small_traces, tmp_path):
    """Regression: a warm cache must shrink the chunks to the pending
    set, not size them on the full plan."""
    compress = {"compress": all_small_traces["compress"]}
    full_delays = tuple(range(1, 1 + 2 * AUTOTUNE_MAX_CHUNK))
    run_sweep(compress, delays=full_delays, cache=SweepCache(tmp_path / "c"))
    # Warm the cache, then dirty exactly three cells via new delays.
    registry = Registry()
    run_sweep(
        compress,
        delays=full_delays + (9_001, 9_002, 9_003),
        cache=SweepCache(tmp_path / "c"),
        workers=2,
        obs=registry,
    )
    snapshot = registry.snapshot()
    size = autotune_chunk_size(2 * 3, 2)  # 2 schemes x 3 new delays
    assert size < AUTOTUNE_MAX_CHUNK
    assert snapshot["gauges"]["sweep.chunk_size"] == size
    assert snapshot["counters"]["sweep.batches"] == -(-6 // size)
