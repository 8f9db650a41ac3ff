"""Workload façade: the public entry point for benchmark traces."""

from __future__ import annotations

from repro.trace.recorder import PathTrace
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator
from repro.workloads.spec import BenchmarkSpec, benchmark_spec


class Workload:
    """A named workload that can materialize its path trace on demand.

    The trace is generated lazily and cached on the instance, so repeated
    experiments over the same workload pay the generation cost once.
    """

    def __init__(self, config: WorkloadConfig, spec: BenchmarkSpec | None = None):
        self.config = config
        self.spec = spec
        self._trace: PathTrace | None = None

    @property
    def name(self) -> str:
        """The workload's name."""
        return self.config.name

    def trace(self) -> PathTrace:
        """Generate (or return the cached) path trace."""
        if self._trace is None:
            self._trace = WorkloadGenerator(self.config).generate()
        return self._trace


_CACHE: dict[tuple[str, float], Workload] = {}


def load_benchmark(name: str, flow_scale: float = 1.0) -> Workload:
    """Load one of the nine benchmark surrogates by name.

    ``flow_scale`` shrinks (or grows) the target flow — useful for quick
    tests (``flow_scale=0.05``) where exact Table 1 calibration does not
    matter.  Workloads are cached per (name, scale) within the process.
    """
    key = (name, flow_scale)
    if key not in _CACHE:
        spec = benchmark_spec(name)
        _CACHE[key] = Workload(spec.config(flow_scale), spec=spec)
    return _CACHE[key]
