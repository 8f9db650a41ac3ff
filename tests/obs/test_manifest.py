"""Run manifests and reporters: schema, round-trip, renderings."""

from __future__ import annotations

import json

from repro.obs import (
    MANIFEST_FORMAT,
    Registry,
    RunRecorder,
    build_manifest,
    render_summary,
    write_manifest,
)


def _instrumented_registry() -> Registry:
    reg = Registry()
    with reg.phase("experiment:figure2"):
        reg.counter("sweep.cells_total").inc(306)
        reg.counter("sweep.cache.hits").inc(300)
        reg.gauge("sweep.workers").set(2)
        reg.timer("sweep.replay").observe(1.25)
    return reg


def test_build_manifest_schema():
    manifest = build_manifest(
        _instrumented_registry(),
        argv=["experiment", "figure2"],
        started_at=123.0,
        wall_seconds=4.5,
        git_rev="abc123",
    )
    assert manifest["manifest_format"] == MANIFEST_FORMAT
    assert manifest["tool"] == "repro"
    assert manifest["argv"] == ["experiment", "figure2"]
    assert manifest["git_rev"] == "abc123"
    assert manifest["wall_seconds"] == 4.5
    assert manifest["counters"]["sweep.cells_total"] == 306
    assert manifest["gauges"]["sweep.workers"] == 2
    assert manifest["timers"]["sweep.replay"]["count"] == 1
    [phase] = manifest["phases"]
    assert phase["name"] == "experiment:figure2"
    assert phase["count"] == 1
    assert phase["wall_seconds"] >= 0.0


def test_write_manifest_round_trips_as_json(tmp_path):
    target = tmp_path / "deep" / "out.json"
    written = write_manifest(
        target, _instrumented_registry(), argv=["sweep", "compress"]
    )
    assert written == target
    loaded = json.loads(target.read_text(encoding="utf-8"))
    assert loaded["manifest_format"] == MANIFEST_FORMAT
    assert loaded["argv"] == ["sweep", "compress"]
    assert loaded["counters"]["sweep.cache.hits"] == 300


def test_git_rev_is_best_effort(tmp_path, monkeypatch):
    # Outside any checkout (and with git missing) the field is null.
    monkeypatch.setenv("PATH", str(tmp_path))
    manifest = build_manifest(Registry(), argv=[])
    assert manifest["git_rev"] is None


def test_run_recorder_tracks_wall_time(tmp_path):
    recorder = RunRecorder(argv=["experiment", "table1"])
    path = recorder.write(tmp_path / "m.json", _instrumented_registry())
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["argv"] == ["experiment", "table1"]
    assert loaded["wall_seconds"] >= 0.0
    assert loaded["started_at_unix"] is not None


def test_render_summary_is_one_line():
    text = render_summary(_instrumented_registry(), wall_seconds=4.2)
    assert text.startswith("metrics: ")
    assert "\n" not in text
    assert "experiment:figure2" in text
    assert "sweep.cells_total 306" in text


def test_render_summary_empty_registry():
    assert render_summary(Registry()) == "metrics: nothing recorded"
