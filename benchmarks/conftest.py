"""Shared fixtures and the one timing method of the benchmark harness.

The harness regenerates every table and figure of the paper at full
calibrated scale, the only scale it runs at.  Traces and the
(expensive, shared) Figure 2/3 sweep are built once per session; each
bench writes its rendered artifact to ``benchmarks/results/``.

A gate that compares ways to do the same work (threads vs serial,
observed vs unobserved, compiled vs interpreted) reads timings from
:func:`time_alternating`: one untimed call of each side pays its
one-time set-up (per-trace memos, lazily built tables), then the sides
run in alternating order for ``ROUNDS`` rounds, and the gate reads the
median of the per-round ratios (:func:`pair_ratios`,
:func:`quartiles`).  No side always runs first, so run order cannot
decide a gate.  Every other number, including the serving bench's
absolute throughput floor, is one wall-clock reading.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from collections.abc import Callable

import pytest

from repro.experiments import benchmark_traces, build_figure2

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Timed rounds of each gated comparison, after the untimed calls.
ROUNDS = 7


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def full_traces():
    """All nine benchmark traces at full calibrated scale."""
    return benchmark_traces()


@pytest.fixture(scope="session")
def sweep_curves(full_traces):
    """The Figure 2/3 delay sweep (shared between both figures)."""
    return build_figure2(traces=full_traces)


@pytest.fixture(scope="session")
def engine_cache_dir(tmp_path_factory) -> pathlib.Path:
    """A fresh sweep-cache root, so engine benches always start cold."""
    return tmp_path_factory.mktemp("sweep-cache")


def time_alternating(
    sides: dict[str, Callable[[], object]],
) -> tuple[dict[str, object], dict[str, list[float]]]:
    """Wall-clock each side of a comparison ``ROUNDS`` times.

    Each side first runs once, untimed, in the given order; its return
    value is kept for the caller's correctness checks.  Every round then
    runs each side once: in the given order in even rounds, reversed in
    odd ones, so each pair of sides alternates which runs first.
    Returns the untimed results and each side's per-round seconds.
    """
    results = {name: run() for name, run in sides.items()}
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    order = list(sides)
    for index in range(ROUNDS):
        for name in order if index % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            sides[name]()
            seconds[name].append(time.perf_counter() - start)
    return results, seconds


def pair_ratios(
    numerators: list[float], denominators: list[float]
) -> list[float]:
    """Per-round ratios of two sides' times from one comparison."""
    return [n / d for n, d in zip(numerators, denominators, strict=True)]


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and interquartile range of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def render_spread(summary: dict[str, float], digits: int) -> str:
    """A :func:`quartiles` summary as ``median (q1–q3)``."""
    return (
        f"{summary['median']:.{digits}f} "
        f"({summary['q1']:.{digits}f}–{summary['q3']:.{digits}f})"
    )


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write one experiment's artifact and echo it."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def emit_json(results_dir: pathlib.Path, name: str, payload: dict) -> None:
    """Write one experiment's machine-readable artifact."""
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[written to {path}]")
