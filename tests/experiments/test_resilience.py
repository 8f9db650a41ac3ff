"""Fault-injection suite for the resilient sweep executor.

Locks down the acceptance matrix of the resilience layer: a batch that
crashes twice then succeeds yields a sweep byte-identical to a
fault-free serial run; a corrupt result is caught and retried; a batch
that fails every attempt fails the sweep with its coordinates; and an
interrupt mid-sweep, serial or threaded, leaves a cache from which a
rerun serves every completed cell without replay.  All of it
deterministic — no real failures, no flaky sleeps as synchronization.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ExperimentError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.experiments import run_sweep
from repro.experiments.engine import SweepCache
from repro.obs import Registry
from repro.resilience import (
    RetryPolicy,
    corrupt_on,
    crash_on,
    interrupt_on,
    plan,
)

DELAYS = (10, 1_000)

#: Fast backoff so retried runs stay test-speed; determinism does not
#: depend on the delays, only on the (batch, attempt) decisions.
FAST = {"backoff_base": 0.001, "backoff_cap": 0.01}


@pytest.fixture(scope="module")
def trio(all_small_traces):
    """Three benchmarks: enough batches for mid-sweep faults."""
    return {
        name: all_small_traces[name]
        for name in ("compress", "deltablue", "go")
    }


@pytest.fixture(scope="module")
def baseline(trio):
    """The fault-free serial reference sweep."""
    return run_sweep(trio, delays=DELAYS)


def test_flaky_batch_serial_byte_identical(trio, baseline):
    """Crashes twice, succeeds on the third attempt — same bytes."""
    registry = Registry()
    points = run_sweep(
        trio,
        delays=DELAYS,
        resilience=RetryPolicy(max_retries=3, **FAST),
        faults=plan(crash_on(batch=1, times=2)),
        obs=registry,
    )
    assert points == baseline
    counters = registry.snapshot()["counters"]
    assert counters["sweep.retries"] == 2


def test_flaky_batch_parallel_byte_identical(trio, baseline):
    registry = Registry()
    points = run_sweep(
        trio,
        delays=DELAYS,
        workers=2,
        resilience=RetryPolicy(max_retries=3, **FAST),
        faults=plan(crash_on(batch=2, times=2)),
        obs=registry,
    )
    assert points == baseline
    assert registry.snapshot()["counters"]["sweep.retries"] == 2


@pytest.mark.parametrize("workers", [0, 2])
def test_crash_exhausts_retries(trio, workers):
    """A batch that always crashes fails the sweep with coordinates."""
    with pytest.raises(WorkerCrashError) as excinfo:
        run_sweep(
            trio,
            delays=DELAYS,
            workers=workers,
            resilience=RetryPolicy(max_retries=1, **FAST),
            faults=plan(crash_on(batch=0, times=None)),
        )
    error = excinfo.value
    assert error.batch_index == 0
    assert error.attempts == 2  # first try + one retry
    assert error.benchmark in trio


def test_corrupt_result_detected_and_retried(trio, baseline):
    """A mangled batch result is rejected, retried, and recovered."""
    registry = Registry()
    points = run_sweep(
        trio,
        delays=DELAYS,
        resilience=RetryPolicy(max_retries=2, **FAST),
        faults=plan(corrupt_on(batch=0, times=1)),
        obs=registry,
    )
    assert points == baseline
    assert registry.snapshot()["counters"]["sweep.retries"] == 1


def test_corrupt_result_exhausts_to_worker_crash(trio):
    with pytest.raises(
        WorkerCrashError, match="failed on every attempt"
    ) as excinfo:
        run_sweep(
            trio,
            delays=DELAYS,
            resilience=RetryPolicy(max_retries=1, **FAST),
            faults=plan(corrupt_on(batch=0, times=None)),
        )
    assert "corrupt batch result" in str(excinfo.value.__cause__)


def test_configuration_errors_are_not_retried(trio):
    """A deterministic ReproError fails fast instead of burning retries."""
    registry = Registry()
    with pytest.raises(
        ExperimentError, match="unknown sweep scheme"
    ) as excinfo:
        run_sweep(
            trio,
            schemes=("no-such-scheme",),
            delays=DELAYS,
            resilience=RetryPolicy(max_retries=5, **FAST),
            obs=registry,
        )
    assert not isinstance(excinfo.value, WorkerCrashError)
    assert registry.snapshot()["counters"]["sweep.retries"] == 0


def test_interrupt_mid_sweep_leaves_resumable_cache(
    trio, baseline, tmp_path
):
    """Ctrl-C mid-sweep: partial results are structured, cached cells
    are served on rerun without a single replay of them."""
    cache = SweepCache(tmp_path / "cache")
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(
            trio,
            delays=DELAYS,
            cache=cache,
            faults=plan(interrupt_on(batch=1)),
        )
    stop = excinfo.value
    # Serial mode runs one batch per benchmark: batches 0 and 1 finish
    # (the interrupting batch completes before the flag is polled).
    cells_per_benchmark = 2 * len(DELAYS)
    assert stop.completed == 2 * cells_per_benchmark
    assert stop.total == len(baseline)
    assert stop.partial == baseline[: stop.completed]
    assert cache.stats.stores == stop.completed

    warm_registry = Registry()
    warm_cache = SweepCache(tmp_path / "cache")
    points = run_sweep(
        trio, delays=DELAYS, cache=warm_cache, obs=warm_registry
    )
    assert points == baseline
    assert warm_cache.stats.hits == stop.completed
    assert warm_cache.stats.misses == len(baseline) - stop.completed
    counters = warm_registry.snapshot()["counters"]
    assert counters["sweep.cells_replayed"] == (
        len(baseline) - stop.completed
    )


def test_mid_run_crash_leaves_resumable_cache(trio, baseline, tmp_path):
    """The incremental-write regression: a sweep killed mid-run must
    not lose the batches that already completed."""
    cache = SweepCache(tmp_path / "cache")
    with pytest.raises(WorkerCrashError):
        run_sweep(
            trio,
            delays=DELAYS,
            resilience=RetryPolicy(max_retries=0, **FAST),
            cache=cache,
            faults=plan(crash_on(batch=2, times=None)),
        )
    completed = 2 * 2 * len(DELAYS)  # two benchmarks finished
    assert cache.stats.stores == completed

    warm_cache = SweepCache(tmp_path / "cache")
    points = run_sweep(trio, delays=DELAYS, cache=warm_cache)
    assert points == baseline
    assert warm_cache.stats.hits == completed
    assert warm_cache.stats.misses == len(baseline) - completed


def test_faulted_retried_parallel_serial_all_equal(trio, baseline):
    """The equivalence guarantee under fire: serial, parallel, and a
    parallel run riddled with recoverable faults return equal lists."""
    parallel = run_sweep(trio, delays=DELAYS, workers=2)
    faulted = run_sweep(
        trio,
        delays=DELAYS,
        workers=2,
        resilience=RetryPolicy(max_retries=4, **FAST),
        faults=plan(
            crash_on(batch=0, times=1),
            corrupt_on(batch=1, times=1),
        ),
    )
    assert parallel == baseline
    assert faulted == baseline


def test_clean_run_reports_zeroed_resilience_counters(trio):
    """Healthy sweeps still intern the full counter set for manifests."""
    registry = Registry()
    run_sweep(trio, delays=DELAYS, obs=registry)
    counters = registry.snapshot()["counters"]
    assert counters["sweep.retries"] == 0


def test_threaded_interrupt_leaves_resumable_cache(
    all_small_traces, tmp_path
):
    """Ctrl-C under threads.  Which batches finish before the main
    thread polls the flag depends on timing, so this checks invariants:
    the partial results are exactly the completed cells, in canonical
    order; the cache holds exactly those; and a warm rerun replays
    exactly the rest."""
    baseline = run_sweep(all_small_traces, delays=DELAYS)
    index = {
        (point.benchmark, point.scheme, point.delay): position
        for position, point in enumerate(baseline)
    }
    cache = SweepCache(tmp_path / "cache")
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(
            all_small_traces,
            delays=DELAYS,
            workers=2,
            cache=cache,
            faults=plan(interrupt_on(batch=1)),
        )
    stop = excinfo.value
    assert stop.total == len(baseline)
    assert stop.completed == len(stop.partial) < stop.total
    positions = [
        index[(point.benchmark, point.scheme, point.delay)]
        for point in stop.partial
    ]
    assert positions == sorted(positions)
    assert stop.partial == [baseline[position] for position in positions]
    assert cache.stats.stores == stop.completed

    warm_registry = Registry()
    warm_cache = SweepCache(tmp_path / "cache")
    points = run_sweep(
        all_small_traces,
        delays=DELAYS,
        workers=2,
        cache=warm_cache,
        obs=warm_registry,
    )
    assert points == baseline
    assert warm_cache.stats.hits == stop.completed
    assert warm_cache.stats.misses == len(baseline) - stop.completed
    counters = warm_registry.snapshot()["counters"]
    assert counters["sweep.cells_replayed"] == (
        len(baseline) - stop.completed
    )
