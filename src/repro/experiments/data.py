"""Shared data loading for the experiment drivers."""

from __future__ import annotations

from collections.abc import Iterable

from repro.trace.recorder import PathTrace
from repro.workloads.base import load_benchmark
from repro.workloads.spec import BENCHMARK_ORDER, benchmark_spec


def benchmark_traces(
    names: Iterable[str] | None = None, flow_scale: float = 1.0
) -> dict[str, PathTrace]:
    """Materialize the benchmark traces the experiments run over.

    ``names`` picks any subset (default: all nine); the traces come back
    in ``BENCHMARK_ORDER`` whatever order ``names`` lists them in, and an
    unknown name raises :class:`~repro.errors.WorkloadError`.
    ``flow_scale`` < 1 shrinks every workload proportionally — used by
    the test-suite for fast smoke runs; the benchmark harness uses the
    full calibrated flows.
    """
    selected = set(BENCHMARK_ORDER if names is None else names)
    for name in selected.difference(BENCHMARK_ORDER):
        benchmark_spec(name)  # raises: not one of the nine
    return {
        name: load_benchmark(name, flow_scale=flow_scale).trace()
        for name in BENCHMARK_ORDER
        if name in selected
    }
