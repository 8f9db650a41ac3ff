"""CLI operability: ``repro serve`` SIGTERM drain + rolling restart
(real subprocesses, real signals) and the ``repro loadtest`` durable
and chaos legs (in-process through ``main(argv)``)."""

import os
import re
import signal
import subprocess
import sys

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


def test_loadtest_no_wire_needs_chaos(capsys):
    assert main(["loadtest", "--tenants", "1", "--no-wire"]) == 2
    assert "--chaos" in capsys.readouterr().err


def test_loadtest_chaos_leg(tmp_path, capsys):
    assert (
        main(
            [
                "loadtest",
                "--chaos",
                "--no-wire",
                "--state-dir",
                str(tmp_path / "state"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "byte-identical" in out
    assert "faults fired" in out
