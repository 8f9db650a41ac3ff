"""Measure one workload and print the result as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-repro --seed 1 --seconds 20 --trace 0

Each sample runs in a fresh interpreter (``perfbench/sample.py``) with
empty cache and state directories under ``.perfbench-work/``.  Samples
repeat until the next one would end past ``--seconds`` (at least
``MIN_SAMPLES``).  ``--trace 0`` reports medians over the samples, with
times at a reference host speed (see :func:`end_to_end`); ``--trace 1``
adds one traced sample and reports its per-layer metrics, with the
tracing overhead taken against the untraced samples' median.
A metadata line (machine, revision, input sizes, sample counts) is
printed before the result, and the full report is kept under
``.perfbench-work/results/``.  Any failed sample exits non-zero without
a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import percentile  # noqa: E402
from perfbench.workloads import WORKLOADS, per_layer_metrics  # noqa: E402

WORK = ROOT / ".perfbench-work"
MIN_SAMPLES = 3
MAX_SAMPLES = 40
#: A sample that takes longer than this is killed and fails the run.
SAMPLE_TIMEOUT_S = 150

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_s", "s"),
    ("op_p50_ms", "ms"),
)


class SampleFailed(RuntimeError):
    """A sample process exited non-zero or printed no record."""


def run_child(
    workload: str,
    seed: int,
    trace: bool,
    index: int,
    smoke: bool = False,
) -> dict:
    """Run one sample in a fresh interpreter and return its record."""
    workdir = WORK / "tmp" / f"{workload}-{seed}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    command = [
        sys.executable,
        "-m",
        "perfbench.sample",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--workdir",
        str(workdir),
    ]
    if trace:
        spans = WORK / "spans" / f"{workload}-seed{seed}.json"
        command += ["--trace", "--spans", str(spans)]
    if smoke:
        command.append("--smoke")
    try:
        t0 = time.monotonic()
        completed = subprocess.run(
            command + ["--t0", repr(t0)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SampleFailed(
            f"{workload} sample {index} exited {completed.returncode}"
        )
    return json.loads(lines[-1])


def collect(
    workload: str, seed: int, seconds: float, smoke: bool = False
) -> list[dict]:
    """Untraced samples until the next would end past ``seconds``."""
    samples: list[dict] = []
    start = time.monotonic()
    while len(samples) < MAX_SAMPLES:
        samples.append(run_child(workload, seed, False, len(samples), smoke))
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(samples)
        if len(samples) >= MIN_SAMPLES and elapsed + per_sample > seconds:
            break
    return samples


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one run.

    ``setup_s``, ``peak_rss_mb`` and ``work_s`` are medians over the
    samples; ``op_p50_ms`` is the median of the per-call operations of
    all samples.  Times are at the reference speed of
    :mod:`perfbench.speed`, so they move with the program, not with the
    host; the metadata line gives the wall-time figures beside them.
    """
    ops = [op for sample in samples for op in sample["ops_ref_s"]]
    return {
        "setup_s": statistics.median(s["setup_ref_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "work_s": statistics.median(s["work_ref_s"] for s in samples),
        "op_p50_ms": percentile(ops, 50) * 1e3,
    }


def per_layer(traced: dict, untraced_work_s: float) -> dict[str, float]:
    metrics = {name: 0.0 for name, _, _ in per_layer_metrics()}
    unknown = set(traced["layers"]) - set(metrics)
    if unknown:
        raise SampleFailed(f"unlisted layer metrics {sorted(unknown)}")
    metrics.update(traced["layers"])
    metrics["trace_overhead"] = traced["work_ref_s"] / untraced_work_s
    return metrics


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; do not ask an enclosing repo
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: pathlib.Path) -> str:
    """Type of the mount holding ``path`` (longest mount-point prefix)."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def metadata(args, samples: list[dict]) -> dict:
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if revision else None
    ops = [op for sample in samples for op in sample["ops_ref_s"]]
    wall_ops = [op for sample in samples for op in sample["ops_s"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "state_dir_filesystem": _filesystem(WORK),
        # Input sizes agree across samples; timings are medians.
        "inputs": {
            key: statistics.median(s["facts"][key] for s in samples)
            if isinstance(value, float)
            else value
            for key, value in samples[0]["facts"].items()
        },
        "samples": len(samples),
        "op_ms": {f"p{q}": percentile(ops, q) * 1e3 for q in (50, 90, 99)},
        "op_ms_samples": len(ops),
        "wall": {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "work_s": statistics.median(s["work_s"] for s in samples),
            **{
                f"op_p{q}_ms": percentile(wall_ops, q) * 1e3
                for q in (50, 90, 99)
            },
        },
        "per_sample": [
            {
                key: sample[key]
                for key in (
                    "setup_s",
                    "setup_ref_s",
                    "work_s",
                    "work_ref_s",
                    "peak_rss_mb",
                    "failed",
                )
            }
            for sample in samples
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smoke-size inputs (tests)"
    )
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills the
    # sample in flight instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    try:
        samples = collect(args.workload, args.seed, args.seconds, args.smoke)
        traced = (
            run_child(args.workload, args.seed, True, len(samples), args.smoke)
            if args.trace
            else None
        )
    except (SampleFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    everything = samples + ([traced] if traced else [])
    for sample in everything:
        for failure in sample["failures"]:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)

    units = dict(END_TO_END)
    if traced:
        values = per_layer(
            traced, statistics.median(s["work_ref_s"] for s in samples)
        )
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        values = end_to_end(samples)
    attempted = sum(sample["attempted"] for sample in everything)
    failed = sum(sample["failed"] for sample in everything)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    meta = metadata(args, samples)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    report = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"metadata": meta, "result": result}, indent=1))
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
