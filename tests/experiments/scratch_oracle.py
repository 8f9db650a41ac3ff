"""Reference oracle: one artifact computed from scratch, without the graph.

``repro.experiments.targets.run_targets`` is the only driver of the
paper artifacts.  It used to have a twin, a registry that recomputed one
target at a time from its declaration; that path replayed the shared
Figure 2/3/claims grid once per target, so it left the package.  Its
smallest faithful form lives here as the oracle the graph equivalence
tests compare every graph-built artifact against: the same
``TargetSpec`` declaration, fed by a fresh sweep or fresh traces.
"""

from __future__ import annotations

from repro.experiments.data import benchmark_traces
from repro.experiments.engine import SweepCache, run_sweep
from repro.experiments.sweep import DEFAULT_DELAYS
from repro.experiments.targets import target_for


def run_experiment(
    name: str, flow_scale: float = 1.0, cache: SweepCache | None = None
) -> str:
    """Regenerate one experiment from scratch and return its text.

    ``cache`` only serves the sweep targets' cells; it never changes
    a result.
    """
    target = target_for(name)
    traces = benchmark_traces(target.benchmarks, flow_scale)
    if target.sweep:
        points = run_sweep(traces, cache=cache)
        return target.render_points(points, DEFAULT_DELAYS)
    return target.build(traces, flow_scale)
