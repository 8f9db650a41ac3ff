"""Engine equivalence: parallel ≡ serial ≡ legacy ≡ cached.

The sweep engine's whole contract is that scheduling is invisible: a
thread-pool sweep, a cache-served sweep and the historical serial loop
all produce the same ``SweepPoint`` lists — and therefore byte-identical
Figure 2/3 renders.  These tests pin that contract on every benchmark
trace at reduced scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    FigureCurves,
    build_figure2,
    render_figure2,
    render_figure3,
    run_sweep,
    sweep_trace,
)
from repro.experiments.engine import SweepCache, plan_sweep
from repro.experiments.engine import executor as executor_module

#: Reduced delay grid: still spans the full profiled-flow range.
DELAYS = (1, 10, 100, 1_000, 10_000)

#: Workers used by the parallel legs (the ISSUE's reference setting).
WORKERS = 2


@pytest.fixture(scope="module")
def serial_points(all_small_traces):
    """The reference serial engine sweep over all nine benchmarks."""
    return run_sweep(all_small_traces, delays=DELAYS)


def test_plan_covers_grid_in_canonical_order(all_small_traces):
    tasks = plan_sweep(list(all_small_traces), delays=DELAYS)
    assert len(tasks) == len(all_small_traces) * 2 * len(DELAYS)
    assert [task.index for task in tasks] == list(range(len(tasks)))
    # Benchmarks outermost, schemes next, delays innermost.
    first = tasks[: len(DELAYS)]
    assert {task.benchmark for task in first} == {tasks[0].benchmark}
    assert {task.scheme for task in first} == {tasks[0].scheme}
    assert [task.delay for task in first] == list(DELAYS)


def test_engine_serial_matches_legacy_sweep_trace(
    all_small_traces, serial_points
):
    legacy = []
    for trace in all_small_traces.values():
        legacy.extend(sweep_trace(trace, delays=DELAYS))
    assert serial_points == legacy


def test_parallel_identical_to_serial_for_every_benchmark(
    all_small_traces, serial_points
):
    parallel = run_sweep(all_small_traces, delays=DELAYS, workers=WORKERS)
    assert parallel == serial_points


def test_parallel_identical_across_chunk_sizes(
    all_small_traces, serial_points
):
    """Scheduling granularity must never leak into the results.  The
    chunk size is autotuned from the thread count: 10 pending cells per
    benchmark make chunks of 5, 2 and 1 cells at 1, 3 and 8 threads."""
    for workers in (1, 3, 8):
        points = run_sweep(
            all_small_traces, delays=DELAYS, workers=workers
        )
        assert points == serial_points


def test_figure2_and_figure3_renders_byte_identical(all_small_traces):
    serial = build_figure2(traces=all_small_traces, delays=DELAYS)
    parallel = FigureCurves(
        points=run_sweep(all_small_traces, delays=DELAYS, workers=WORKERS),
        delays=DELAYS,
    )
    assert render_figure2(parallel) == render_figure2(serial)
    assert render_figure3(parallel) == render_figure3(serial)


def test_cached_rerun_identical_and_replay_free(
    all_small_traces, serial_points, tmp_path, monkeypatch
):
    root = tmp_path / "sweep-cache"
    cold_cache = SweepCache(root)
    cold = run_sweep(all_small_traces, delays=DELAYS, cache=cold_cache)
    cells = len(serial_points)
    assert cold == serial_points
    assert cold_cache.stats.misses == cells
    assert cold_cache.stats.stores == cells
    assert cold_cache.stats.hits == 0

    # The warm rerun must not replay a single trace: make any attempt
    # to compute a cell blow up.
    def explode(trace, cells):  # pragma: no cover - must never run
        raise AssertionError("warm-cache sweep replayed a trace")

    monkeypatch.setattr(executor_module, "_run_cells", explode)
    warm_cache = SweepCache(root)
    warm = run_sweep(all_small_traces, delays=DELAYS, cache=warm_cache)
    assert warm == cold
    assert warm_cache.stats.hits == cells
    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.stores == 0


def test_cache_and_parallel_compose(all_small_traces, serial_points, tmp_path):
    """A parallel cold fill then a parallel warm read both match serial."""
    cache = SweepCache(tmp_path / "cache")
    cold = run_sweep(
        all_small_traces, delays=DELAYS, workers=WORKERS, cache=cache
    )
    warm = run_sweep(
        all_small_traces, delays=DELAYS, workers=WORKERS, cache=cache
    )
    assert cold == serial_points
    assert warm == serial_points
    assert cache.stats.hits == len(serial_points)
