"""The observability primitives: registry, hierarchy, null, merge."""

from __future__ import annotations

import pytest

from repro.obs import (
    NULL_REGISTRY,
    NullRegistry,
    Registry,
    get_registry,
)


def test_counter_gauge_timer_basics():
    reg = Registry()
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    reg.gauge("g").set(2.5)
    reg.timer("t").observe(0.5)
    reg.timer("t").observe(1.5)
    assert reg.counter("a").value == 5
    assert reg.gauge("g").value == 2.5
    assert reg.timer("t").total_seconds == 2.0
    assert reg.timer("t").count == 2


def test_instruments_are_interned_by_name():
    reg = Registry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.timer("x") is reg.timer("x")
    assert reg.counter("x") is not reg.counter("y")


def test_span_times_the_block():
    reg = Registry()
    with reg.span("work"):
        pass
    timer = reg.timer("work")
    assert timer.count == 1
    assert timer.total_seconds >= 0.0


def test_span_records_time_even_on_exception():
    reg = Registry()
    with pytest.raises(RuntimeError):
        with reg.span("work"):
            raise RuntimeError("boom")
    assert reg.timer("work").count == 1


def test_phase_ordering_and_timers():
    reg = Registry()
    with reg.phase("plan"):
        pass
    with reg.phase("execute"):
        pass
    with reg.phase("plan"):  # re-entering does not duplicate the phase
        pass
    snap = reg.snapshot()
    assert snap["phases"] == ["plan", "execute"]
    assert snap["timers"]["phase.plan"]["count"] == 2
    assert snap["timers"]["phase.execute"]["count"] == 1


def test_child_prefixes_share_root_storage():
    root = Registry()
    child = root.child("sweep")
    grandchild = child.child("cache")
    child.counter("cells").inc(3)
    grandchild.counter("hits").inc()
    assert root.counter("sweep.cells").value == 3
    assert root.counter("sweep.cache.hits").value == 1
    # The child's snapshot is the root's (one flat namespace).
    assert child.snapshot() == root.snapshot()


def test_child_phase_lands_on_root():
    root = Registry()
    with root.child("engine").phase("replay"):
        pass
    assert root.snapshot()["phases"] == ["engine.replay"]


def test_snapshot_merge_accumulates_counters_and_timers():
    main = Registry()
    main.counter("cells").inc(2)
    main.timer("replay").observe(1.0)

    worker = Registry()
    worker.counter("cells").inc(3)
    worker.counter("worker_only").inc()
    worker.timer("replay").observe(0.5)
    worker.gauge("load").set(7.0)

    main.merge(worker.snapshot())
    assert main.counter("cells").value == 5
    assert main.counter("worker_only").value == 1
    assert main.timer("replay").total_seconds == 1.5
    assert main.timer("replay").count == 2
    assert main.gauge("load").value == 7.0


def test_merge_empty_snapshot_is_identity():
    reg = Registry()
    reg.counter("a").inc()
    before = reg.snapshot()
    reg.merge(Registry().snapshot())
    assert reg.snapshot() == before


def test_null_registry_records_nothing():
    null = NullRegistry()
    null.counter("a").inc(100)
    null.gauge("g").set(1.0)
    null.timer("t").observe(5.0)
    with null.span("s"):
        pass
    with null.phase("p"):
        pass
    null.merge({"counters": {"a": 1}})
    assert null.snapshot() == {
        "counters": {},
        "gauges": {},
        "timers": {},
        "phases": [],
    }
    assert not null.enabled
    assert null.child("x") is null


def test_get_registry_normalizes_none():
    assert get_registry(None) is NULL_REGISTRY
    reg = Registry()
    assert get_registry(reg) is reg


def test_snapshot_is_json_ready():
    import json

    reg = Registry()
    reg.counter("a").inc()
    with reg.phase("p"):
        reg.gauge("g").set(0.5)
    json.dumps(reg.snapshot())  # must not raise
