"""Serving chaos harness: faults injected mid-load, recovery checked
byte-for-byte against an uninterrupted run of the same schedule."""

import dataclasses
import hashlib
import json
import threading

import pytest

from repro.errors import ServingError
from repro.serving import (
    ChaosConfig,
    default_plan,
    render_chaos_report,
    run_chaos,
    schedule_steps,
)
from repro.serving.chaos import CHAOS_KINDS, ChaosFault

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


def _with_plan(faults):
    return dataclasses.replace(_CONFIG, faults=faults)


#: Every ``ChaosReport`` field of two full-plan runs, and the SHA-256 of
#: the canonical JSON of their per-tenant fingerprints.  ``cli`` is the
#: run ``repro chaos`` makes with its defaults.
GOLDEN_RUNS = {
    "tests": (
        _CONFIG,
        {
            "tenants": 4,
            "steps": 28,
            "faults_fired": (
                ("crash", 7),
                ("corrupt", 14),
                ("hang", 18),
                ("interrupt", 22),
            ),
            "restarts": 3,
            "replayed_batches": 3,
            "duplicates_acked": 1,
            "truncated_bytes": 66,
            "mismatched": (),
        },
        "0a69e5dadf5d06157a37ccbae09961a9c111444e3214b42d309f8467aa536052",
    ),
    "cli": (
        ChaosConfig(
            seed=7, delay=50, num_shards=8, checkpoint_interval_batches=3
        ),
        {
            "tenants": 6,
            "steps": 78,
            "faults_fired": (
                ("crash", 19),
                ("corrupt", 39),
                ("hang", 50),
                ("interrupt", 62),
            ),
            "restarts": 3,
            "replayed_batches": 4,
            "duplicates_acked": 1,
            "truncated_bytes": 392,
            "mismatched": (),
        },
        "beba92ad7fd715a1c68b8450c34174a0b42691cbdd62589d2cdb6acb003862be",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_chaos_results_are_pinned(tmp_path, name):
    config, fields, fingerprints_sha = GOLDEN_RUNS[name]
    config = dataclasses.replace(
        config, faults=default_plan(schedule_steps(config))
    )
    report = run_chaos(config, tmp_path)
    observed = dataclasses.asdict(report)
    canonical = json.dumps(
        observed.pop("fingerprints"), sort_keys=True, separators=(",", ":")
    )
    assert observed == fields
    assert hashlib.sha256(canonical.encode()).hexdigest() == fingerprints_sha


def test_default_plan_covers_every_fault_kind():
    steps = schedule_steps(_CONFIG)
    assert steps > 8
    fault_plan = default_plan(steps)
    assert sorted(f.kind for f in fault_plan) == sorted(CHAOS_KINDS)
    assert all(0 < f.step < steps for f in fault_plan)


def test_full_plan_over_tcp(tmp_path):
    config = _with_plan(default_plan(schedule_steps(_CONFIG)))
    report = run_chaos(config, tmp_path)
    assert report.equivalent
    assert report.mismatched == ()
    assert [kind for kind, _ in report.faults_fired] == [
        f.kind for f in sorted(config.faults, key=lambda f: f.step)
    ]
    assert report.restarts == 3  # crash, corrupt, interrupt
    assert report.duplicates_acked >= 1  # the lost-ack redelivery
    assert report.truncated_bytes > 0  # the corrupt fault tore the WAL
    assert len(report.fingerprints) == config.num_tenants
    rendered = render_chaos_report(report)
    assert "byte-identical" in rendered
    assert "crash@" in rendered


def test_crash_only_plan_replays_since_snapshot(tmp_path):
    steps = schedule_steps(_CONFIG)
    config = _with_plan((ChaosFault(kind="crash", step=steps // 2),))
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


@pytest.mark.parametrize("kind", ["meteor", "pool_break"])
def test_unknown_chaos_fault_is_a_serving_error(kind):
    """A caller that catches ServingError sees a bad chaos plan."""
    with pytest.raises(ServingError, match=kind):
        ChaosFault(kind=kind, step=0)


def test_failed_tcp_run_stops_its_server(tmp_path, monkeypatch):
    def fail(self):
        raise RuntimeError("injected failure mid-run")

    # A lost-ack fault reaches the driver while its server is up.
    monkeypatch.setattr("repro.serving.chaos._Driver.drop_next_ack", fail)
    before = set(threading.enumerate())
    config = _with_plan((ChaosFault(kind="hang", step=2),))
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
