"""Fault-injection suite for the sweep executor's failure paths.

Locks down what a sweep does when it cannot finish: a batch that raises
fails the sweep at once with its own exception, every cell replayed
once at most; a crash mid-sweep leaves every completed batch in the
cache; and an interrupt mid-sweep, serial or threaded, leaves a cache
from which a rerun serves every completed cell without replay.  All of
it deterministic — no real failures, no flaky sleeps as
synchronization.
"""

from __future__ import annotations

import os
import signal
from collections import Counter

import pytest

from repro.errors import ExperimentError, SweepInterrupted
from repro.experiments import run_sweep
from repro.experiments.engine import SweepCache, executor
from repro.obs import Registry

DELAYS = (10, 1_000)


class InjectedFault(RuntimeError):
    """The stand-in exception an armed crash raises inside a batch."""


@pytest.fixture
def arm_fault(monkeypatch):
    """``arm_fault(kind, batch)`` plans one fault for batch ``batch``
    (the executor numbers batches in canonical plan order).

    It fires once, before the batch computes, on whichever thread runs
    it: a ``"crash"`` raises :class:`InjectedFault`, an ``"interrupt"``
    sends SIGINT to this process as Ctrl-C would.  Later sweeps in the
    same test, such as a warm rerun, run clean.
    """
    compute = executor._SweepRunner._compute
    armed: dict[int, str] = {}

    def faulty(runner, order):
        kind = armed.pop(order, None)
        if kind == "crash":
            raise InjectedFault(f"injected crash: batch {order}")
        if kind == "interrupt":
            os.kill(os.getpid(), signal.SIGINT)
        return compute(runner, order)

    def arm(kind: str, batch: int) -> None:
        armed[batch] = kind

    monkeypatch.setattr(executor._SweepRunner, "_compute", faulty)
    return arm


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


@pytest.mark.parametrize("workers", [0, 2])
def test_failing_batch_raises_its_own_error(trio, workers, monkeypatch):
    """A batch that raises stops the sweep with that very exception,
    and no failing cell is replayed a second time."""
    evaluate = executor.evaluate_prediction
    failed = Counter()

    def failing_for_go(trace, hot, outcome):
        if trace.name == "go":
            failed[(outcome.scheme, outcome.delay)] += 1
            raise ValueError(f"defect in {outcome.scheme}:{outcome.delay}")
        return evaluate(trace, hot, outcome)

    monkeypatch.setattr(executor, "evaluate_prediction", failing_for_go)
    with pytest.raises(ValueError, match="defect in") as excinfo:
        run_sweep(trio, delays=DELAYS, workers=workers)
    assert type(excinfo.value) is ValueError
    assert failed and set(failed.values()) == {1}


def test_configuration_errors_are_not_retried(trio):
    """A deterministic ReproError raised inside a batch fails the sweep
    as itself."""
    with pytest.raises(ExperimentError, match="unknown sweep scheme"):
        run_sweep(trio, schemes=("no-such-scheme",), delays=DELAYS)


def test_interrupt_mid_sweep_leaves_resumable_cache(
    trio, baseline, tmp_path, arm_fault
):
    """Ctrl-C mid-sweep: partial results are structured, cached cells
    are served on rerun without a single replay of them."""
    cache = SweepCache(tmp_path / "cache")
    arm_fault("interrupt", 1)
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(trio, delays=DELAYS, cache=cache)
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


def test_mid_run_crash_leaves_resumable_cache(
    trio, baseline, tmp_path, arm_fault
):
    """The incremental-write regression: a sweep killed mid-run must
    not lose the batches that already completed."""
    cache = SweepCache(tmp_path / "cache")
    arm_fault("crash", 2)
    with pytest.raises(InjectedFault):
        run_sweep(trio, delays=DELAYS, cache=cache)
    completed = 2 * 2 * len(DELAYS)  # two benchmarks finished
    assert cache.stats.stores == completed

    warm_cache = SweepCache(tmp_path / "cache")
    points = run_sweep(trio, delays=DELAYS, cache=warm_cache)
    assert points == baseline
    assert warm_cache.stats.hits == completed
    assert warm_cache.stats.misses == len(baseline) - completed


@pytest.mark.parametrize("batch", [3, 9])
def test_threaded_crash_caches_every_computed_cell(
    trio, batch, tmp_path, monkeypatch, arm_fault
):
    """A crash under threads still completes every batch that returned:
    the other batches finished alongside the failing one and the ones
    the pool's shutdown waits for are placed and cached, so the cache
    holds every cell a batch computed."""
    run_cells = executor._run_cells
    computed = []

    def counting(*args):
        outcome = run_cells(*args)
        computed.append(len(outcome[0]))
        return outcome

    monkeypatch.setattr(executor, "_run_cells", counting)
    cache = SweepCache(tmp_path / "cache")
    arm_fault("crash", batch)
    with pytest.raises(InjectedFault, match=f"batch {batch}"):
        run_sweep(trio, workers=2, cache=cache)
    assert sum(computed) > 0
    assert len(cache.entry_names()) == sum(computed)
    assert cache.stats.stores == sum(computed)


def test_threaded_interrupt_leaves_resumable_cache(
    all_small_traces, tmp_path, arm_fault
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
    arm_fault("interrupt", 1)
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(all_small_traces, delays=DELAYS, workers=2, cache=cache)
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
