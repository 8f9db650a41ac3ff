"""Serving chaos harness: faults injected mid-load, recovery checked
byte-for-byte against an uninterrupted run of the same schedule."""

import dataclasses
import threading

import pytest

from repro.resilience import FaultSpec, plan
from repro.serving import (
    ChaosConfig,
    default_plan,
    render_chaos_report,
    run_chaos,
    schedule_steps,
)
from repro.serving.chaos import SERVING_FAULT_KINDS, ChaosFault

#: Small but non-trivial: 4 tenants x ~7 batches each.
_CONFIG = ChaosConfig(
    num_tenants=4,
    num_streams=2,
    events_per_tenant=800,
    batch_events=128,
    trips=12,
    seed=23,
    delay=20,
    num_shards=2,
    checkpoint_interval_batches=2,
)


def _with_plan(faults, **overrides):
    return dataclasses.replace(_CONFIG, faults=faults, **overrides)


def test_default_plan_covers_every_fault_kind():
    steps = schedule_steps(_CONFIG)
    assert steps > 8
    fault_plan = default_plan(steps)
    assert sorted(s.kind for s in fault_plan.specs) == sorted(
        SERVING_FAULT_KINDS
    )
    assert all(0 < s.batch < steps for s in fault_plan.specs)


def test_full_plan_in_process(tmp_path):
    config = _with_plan(default_plan(schedule_steps(_CONFIG)))
    report = run_chaos(config, tmp_path)
    assert report.equivalent
    assert report.mismatched == ()
    assert [kind for kind, _ in report.faults_fired] == [
        s.kind for s in sorted(config.faults.specs, key=lambda s: s.batch)
    ]
    assert report.restarts == 3  # crash, corrupt, interrupt
    assert report.duplicates_acked >= 1  # the lost-ack redelivery
    assert report.truncated_bytes > 0  # the corrupt fault tore the WAL
    assert len(report.fingerprints) == config.num_tenants
    rendered = render_chaos_report(report)
    assert "byte-identical" in rendered
    assert "crash@" in rendered


def test_full_plan_over_tcp(tmp_path):
    config = _with_plan(
        default_plan(schedule_steps(_CONFIG)), tcp=True
    )
    report = run_chaos(config, tmp_path)
    assert report.equivalent
    assert report.restarts == 3
    assert report.duplicates_acked >= 1


def test_crash_only_plan_replays_since_snapshot(tmp_path):
    steps = schedule_steps(_CONFIG)
    config = _with_plan(plan(FaultSpec(kind="crash", batch=steps // 2)))
    report = run_chaos(config, tmp_path)
    assert report.equivalent
    assert report.restarts == 1
    assert report.replayed_batches > 0  # kill landed between snapshots
    assert report.truncated_bytes == 0


def test_no_faults_is_a_clean_durable_run(tmp_path):
    report = run_chaos(_CONFIG, tmp_path)
    assert report.equivalent
    assert report.restarts == 0
    assert report.replayed_batches == 0
    assert report.faults_fired == ()


def test_unknown_fault_kind_rejected(tmp_path):
    with pytest.raises(Exception, match="pool_break"):
        run_chaos(
            _with_plan(plan(FaultSpec(kind="pool_break", batch=2))),
            tmp_path,
        )


def test_failed_tcp_run_stops_its_server(tmp_path, monkeypatch):
    def fail(self):
        raise RuntimeError("injected failure mid-run")

    # A lost-ack fault reaches the driver while its server is up.
    monkeypatch.setattr(
        "repro.serving.chaos._TCPDriver.drop_next_ack", fail
    )
    before = set(threading.enumerate())
    config = _with_plan(plan(ChaosFault(kind="hang", batch=2)), tcp=True)
    with pytest.raises(Exception, match="injected failure"):
        run_chaos(config, tmp_path)
    started = [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name == "serving-tcp"
    ]
    for thread in started:
        thread.join(timeout=10)
        assert not thread.is_alive(), "the TCP server outlived the run"
