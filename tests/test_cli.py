"""CLI command coverage (all through main(argv), no subprocesses)."""

import json
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.errors import SweepInterrupted


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "compress" in out and "figure5" in out


def test_inspect(capsys):
    assert main(["inspect", "deltablue", "--flow-scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "deltablue" in out
    assert "HotPath" in out


def test_inspect_rejects_unknown_benchmark(capsys):
    with pytest.raises(SystemExit):
        main(["inspect", "quake"])


def test_experiment_single(capsys, tmp_path):
    assert main(
        [
            "experiment",
            "table2",
            "--flow-scale",
            "0.05",
            "--out",
            str(tmp_path),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert (tmp_path / "table2.txt").exists()


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "figure99", "--flow-scale", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_sweep(capsys):
    assert main(
        [
            "sweep",
            "deltablue",
            "--flow-scale",
            "0.05",
            "--delays",
            "1",
            "100",
            "--no-cache",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Delay sweep" in out
    assert "net" in out and "path-profile" in out


def test_sweep_cache_warms_across_invocations(capsys, tmp_path):
    argv = [
        "sweep",
        "deltablue",
        "--flow-scale",
        "0.05",
        "--delays",
        "1",
        "100",
        "--cache-dir",
        str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "4 misses" in cold.err and "0 hits" in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "4 hits" in warm.err and "0 misses" in warm.err
    assert warm.out == cold.out  # byte-identical table either way


def test_sweep_parallel_matches_serial_output(capsys, tmp_path):
    base = ["sweep", "deltablue", "--flow-scale", "0.05", "--delays", "1",
            "100", "--no-cache"]
    assert main(base) == 0
    serial = capsys.readouterr().out
    assert main(base + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial


def test_workers_rejects_negative_at_parse_time(capsys):
    """A negative pool size is a usage error, not an executor crash."""
    with pytest.raises(SystemExit):
        main(["sweep", "deltablue", "--workers", "-2"])
    assert "workers must be >= 0" in capsys.readouterr().err


def test_run_alias_writes_metrics_manifest(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    argv = [
        "run",
        "table2",
        "--flow-scale",
        "0.05",
        "--no-cache",
        "--metrics-json",
        str(manifest),
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "Table 2" in captured.out
    assert captured.err.splitlines()[-1].startswith("metrics:")
    data = json.loads(manifest.read_text())
    assert data["manifest_format"] == 1
    assert data["argv"] == argv
    assert data["counters"]["graph.renders_executed"] == 1
    assert data["wall_seconds"] > 0


def _tree(root: pathlib.Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in root.iterdir()}


def test_no_cache_run_replays_the_grid_once(capsys, tmp_path, monkeypatch):
    """--no-cache runs the graph over a throwaway cache: it prints and
    writes what a cached run does, replays each shared Figure 2/3/claims
    cell once, and leaves no cache or temporary directory behind."""
    monkeypatch.chdir(tmp_path)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    flags = ["--flow-scale", "0.02"]
    argv = ["run", *flags, "--no-cache", "--out", "a"]
    assert main(argv + ["--metrics-json", "m", "--quiet-metrics"]) == 0
    uncached = capsys.readouterr().out
    assert main(["run", *flags, "--cache-dir", "c", "--out", "b"]) == 0
    assert capsys.readouterr().out == uncached
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert len(_tree(tmp_path / "a")) == 8
    counters = json.loads((tmp_path / "m").read_text())["counters"]
    assert counters["sweep.runs"] == 1
    assert counters["sweep.cells_replayed"] == 306
    assert not (tmp_path / ".repro-cache").exists()
    assert not any(scratch.iterdir())


def test_metrics_leave_output_byte_identical(capsys, tmp_path):
    base = [
        "sweep",
        "deltablue",
        "--flow-scale",
        "0.05",
        "--delays",
        "1",
        "--no-cache",
    ]
    assert main(base) == 0
    plain = capsys.readouterr().out
    manifest = tmp_path / "m.json"
    flags = ["--metrics-json", str(manifest), "--quiet-metrics"]
    assert main(base + flags) == 0
    metered = capsys.readouterr()
    assert metered.out == plain
    assert metered.err == ""  # --quiet-metrics suppresses the summary
    counters = json.loads(manifest.read_text())["counters"]
    assert counters["sweep.cells_total"] == 2  # one delay, two schemes
    assert counters["sweep.cells_replayed"] == 2
    assert counters["sweep.prediction.outcomes"] == 2


def test_experiment_dry_run_cold_then_warm(capsys, tmp_path):
    """--dry-run stdout is the exact execution plan: the cold plan names
    the nodes a real run builds; after the run it is empty."""
    argv = [
        "run",
        "table2",
        "--flow-scale",
        "0.05",
        "--cache-dir",
        str(tmp_path / "cache"),
    ]
    assert main(argv + ["--dry-run"]) == 0
    cold = capsys.readouterr()
    assert "render:table2@0.05" in cold.out
    assert "never built" in cold.out
    assert "1 dirty" in cold.err

    assert main(argv) == 0  # the real run builds exactly that
    capsys.readouterr()

    assert main(argv + ["--dry-run"]) == 0
    warm = capsys.readouterr()
    assert warm.out == ""  # nothing to do, nothing listed
    assert "0 dirty" in warm.err


def test_experiment_dry_run_requires_cache(capsys):
    assert main(["run", "table2", "--dry-run", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--no-cache" in err


def test_experiment_warm_graph_run_is_byte_identical(capsys, tmp_path):
    argv = [
        "run",
        "table2",
        "--flow-scale",
        "0.05",
        "--out",
        str(tmp_path / "out"),
        "--cache-dir",
        str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "1 dirty" in cold.err
    assert main(argv + ["--explain"]) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out  # served from the render store
    assert "0 dirty" in warm.err
    assert (tmp_path / "out" / "table2.txt").exists()


def test_experiment_graph_counters_reach_the_manifest(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    argv = [
        "run",
        "table2",
        "--flow-scale",
        "0.05",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--metrics-json",
        str(manifest),
        "--quiet-metrics",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    counters = json.loads(manifest.read_text())["counters"]
    assert counters["graph.nodes_total"] == 1
    assert counters["graph.nodes_dirty"] == 1
    assert counters["graph.renders_executed"] == 1
    assert main(argv) == 0
    capsys.readouterr()
    warm = json.loads(manifest.read_text())["counters"]
    assert warm["graph.nodes_dirty"] == 0
    assert warm["graph.nodes_skipped"] == 1
    assert warm["graph.renders_served"] == 1


def test_interrupt_exits_130_with_partial_manifest(
    capsys, tmp_path, monkeypatch
):
    """Ctrl-C mid-sweep: shell exit convention, no traceback, and the
    manifest that was recorded so far lands on disk marked interrupted."""

    def interrupted_sweep(traces, **kwargs):
        raise SweepInterrupted(
            partial=[], completed=2, total=4, signal_name="SIGINT"
        )

    monkeypatch.setattr(
        "repro.experiments.engine.executor.run_sweep", interrupted_sweep
    )
    manifest = tmp_path / "partial.json"
    code = main(
        [
            "sweep",
            "deltablue",
            "--flow-scale",
            "0.05",
            "--no-cache",
            "--metrics-json",
            str(manifest),
        ]
    )
    assert code == 130
    captured = capsys.readouterr()
    assert "interrupted" in captured.err
    assert "SIGINT" in captured.err
    assert "Traceback" not in captured.err
    data = json.loads(manifest.read_text())
    assert data["interrupted"] is True
    assert data["manifest_format"] == 1


def test_keyboard_interrupt_exits_130(capsys, monkeypatch):
    def impatient_sweep(traces, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(
        "repro.experiments.engine.executor.run_sweep", impatient_sweep
    )
    code = main(
        ["sweep", "deltablue", "--flow-scale", "0.05", "--no-cache"]
    )
    assert code == 130
    captured = capsys.readouterr()
    assert "interrupted" in captured.err
    assert "Traceback" not in captured.err


def test_completed_run_manifest_is_not_interrupted(capsys, tmp_path):
    manifest = tmp_path / "clean.json"
    assert main(
        [
            "sweep",
            "deltablue",
            "--flow-scale",
            "0.05",
            "--delays",
            "1",
            "--no-cache",
            "--metrics-json",
            str(manifest),
            "--quiet-metrics",
        ]
    ) == 0
    capsys.readouterr()
    assert json.loads(manifest.read_text())["interrupted"] is False


def test_dynamo(capsys):
    assert main(
        ["dynamo", "deltablue", "--flow-scale", "0.05", "--delays", "10"]
    ) == 0
    out = capsys.readouterr().out
    assert "net" in out and "path-profile" in out


def test_minidynamo(capsys):
    assert main(
        ["minidynamo", "rle", "--scale", "0.02", "--delay", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "tier=compiled" in out
    assert "rle" in out


def test_minidynamo_runs_every_program_by_default(capsys):
    """No program names means all of them, as the help says.  On Python
    3.11 argparse used to reject the empty list as an invalid choice."""
    from repro.isa.programs import ALL_PROGRAMS

    assert main(["minidynamo", "--scale", "0.02", "--quiet-metrics"]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split()[0] for row in rows] == sorted(ALL_PROGRAMS)
    with pytest.raises(SystemExit):
        main(["minidynamo", "rle", "quake"])
    assert "invalid choice: 'quake'" in capsys.readouterr().err


def test_minidynamo_tiers(capsys):
    for tier in ("interp", "compiled"):
        assert main(
            [
                "minidynamo",
                "sort",
                "--tier",
                tier,
                "--scale",
                "0.05",
                "--delay",
                "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"tier={tier}" in out
    with pytest.raises(SystemExit):
        main(["minidynamo", "sort", "--tier", "fragments"])
    assert "invalid choice: 'fragments'" in capsys.readouterr().err


def test_minidynamo_metrics(capsys, tmp_path):
    manifest = tmp_path / "metrics.json"
    assert main(
        [
            "minidynamo",
            "rle",
            "--scale",
            "0.02",
            "--delay",
            "5",
            "--metrics-json",
            str(manifest),
            "--quiet-metrics",
        ]
    ) == 0
    capsys.readouterr()
    counters = json.loads(manifest.read_text())["counters"]
    assert counters["dynamo.vm.fragments_compiled"] > 0
    assert counters["dynamo.vm.link_patches"] > 0
    assert counters["dynamo.vm.fragment_completions"] > 0


def test_save_and_info(capsys, tmp_path):
    target = tmp_path / "db"
    assert main(
        ["save-trace", "deltablue", str(target), "--flow-scale", "0.05"]
    ) == 0
    assert main(["trace-info", str(target) + ".npz"]) == 0
    out = capsys.readouterr().out
    assert "deltablue" in out


def test_trace_info_missing_file(capsys, tmp_path):
    assert main(["trace-info", str(tmp_path / "ghost.npz")]) == 2
    assert "error:" in capsys.readouterr().err
