"""CLI operability: ``repro serve`` SIGTERM drain + rolling restart
(real subprocesses, real signals), the ``repro loadtest`` durable leg
and ``repro chaos`` (in-process through ``main(argv)``)."""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.cli import main
from repro.serving import LoadgenConfig, ServingClient, build_corpus

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _spawn_serve(state_dir, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(state_dir),
            "--streams",
            "1",
            "--events",
            "400",
            "--checkpoint-interval",
            "1",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    match = re.search(r"serving on 127\.0\.0\.1:(\d+) ", banner)
    if match is None:  # pragma: no cover - fail loud with the evidence
        proc.kill()
        raise AssertionError(f"no serving banner, got {banner!r}")
    return proc, int(match.group(1))


def test_sigterm_drains_and_restart_resumes(tmp_path):
    corpus = build_corpus(
        LoadgenConfig(num_streams=1, events_per_tenant=400, seed=7)
    )
    stream = corpus[0]
    state_dir = tmp_path / "state"

    proc, port = _spawn_serve(state_dir)
    try:
        with ServingClient("127.0.0.1", port) as client:
            client.open("op-0", stream.name)
            for seq, payload in enumerate(stream.payloads):
                client.ingest("op-0", payload, seq=seq)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err  # clean drain exits 0
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()

    # Rolling restart on the same state dir: the tenant is restored and
    # the next expected seq is exactly where the drained server stopped.
    proc, port = _spawn_serve(state_dir)
    try:
        with ServingClient("127.0.0.1", port) as client:
            assert client.expected_seq("op-0") == len(stream.payloads)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "restored 1 tenant sessions" in err
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()


def test_loadtest_durable_leg(tmp_path, capsys):
    assert (
        main(
            [
                "loadtest",
                "--tenants",
                "6",
                "--events",
                "600",
                "--batch-events",
                "128",
                "--workers",
                "2",
                "--state-dir",
                str(tmp_path / "state"),
            ]
        )
        == 0
    )
    assert "events/sec" in capsys.readouterr().out
    assert (tmp_path / "state" / "meta.json").exists()


#: ``repro chaos``'s stdout with its defaults.
CHAOS_STDOUT = """\
tenants:            6
schedule steps:     78
faults fired:       crash@19, corrupt@39, hang@50, interrupt@62
server restarts:    3
batches replayed:   4
duplicates acked:   1
WAL bytes torn:     392
equivalence:        byte-identical to the uninterrupted run
"""


def test_loadtest_chaos_leg(tmp_path, capsys):
    """``repro chaos`` with its defaults: the report, and a manifest
    that shows every fault fired."""
    manifest = tmp_path / "chaos.json"
    argv = ["chaos", "--state-dir", str(tmp_path / "state")]
    metrics = ["--metrics-json", str(manifest), "--quiet-metrics"]
    assert main(argv + metrics) == 0
    assert capsys.readouterr().out == CHAOS_STDOUT
    data = json.loads(manifest.read_text())
    assert data["counters"]["chaos.restarts"] == 3
    assert data["counters"]["chaos.duplicates_acked"] >= 1
    assert data["gauges"]["chaos.equivalent"] == 1.0


def test_chaos_rejects_flags_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", "--tenants", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tenants 2" in capsys.readouterr().err
