"""Experiment registry: one entry per paper table/figure.

``run_experiment(name)`` regenerates any table or figure and returns its
text rendering; ``EXPERIMENT_IDS`` lists what is available.  It serves
``repro run --no-cache``, where the artifact graph has nowhere to keep
its state, and it is the from-scratch reference that the graph
equivalence tests compare every graph-built artifact against.

The registry is *derived* from the target declarations (each experiment
module's ``TARGET``, collected in :mod:`repro.experiments.targets`):
the same :class:`~repro.experiments.engine.graph.TargetSpec` that
drives the incremental artifact graph also defines the from-scratch
runner used here, so the two paths cannot drift apart — the equivalence
tests assert their outputs are byte-identical.

``run_experiment`` always computes from scratch (modulo the sweep
cache); for the incremental path — recompute only what changed — see
:func:`repro.experiments.targets.run_targets` and ``repro run``.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.experiments.data import benchmark_traces
from repro.experiments.engine import SweepCache, run_sweep
from repro.experiments.engine.graph import TargetSpec
from repro.experiments.sweep import DEFAULT_DELAYS
from repro.experiments.targets import TARGETS
from repro.obs.core import Registry
from repro.resilience import RetryPolicy


def _run_target(
    target: TargetSpec,
    flow_scale: float,
    workers: int,
    cache: SweepCache | None,
    obs: Registry | None,
    resilience: RetryPolicy | None,
) -> str:
    """Compute one target from scratch via its declaration."""
    if target.sweep:
        traces = benchmark_traces(
            names=list(target.benchmarks), flow_scale=flow_scale
        )
        points = run_sweep(
            traces,
            workers=workers,
            cache=cache,
            obs=obs,
            resilience=resilience,
        )
        return target.render_points(points, DEFAULT_DELAYS)
    traces = (
        benchmark_traces(
            names=list(target.benchmarks), flow_scale=flow_scale
        )
        if target.benchmarks
        else {}
    )
    return target.build(traces, flow_scale)


#: Public list of regenerable experiments (canonical artifact order).
EXPERIMENT_IDS = tuple(TARGETS)

#: Experiments whose data is a delay sweep (and thus engine-accelerated).
SWEEP_EXPERIMENTS = tuple(
    name for name, target in TARGETS.items() if target.sweep
)


def run_experiment(
    name: str,
    flow_scale: float = 1.0,
    workers: int = 0,
    cache: SweepCache | None = None,
    obs: Registry | None = None,
    resilience: RetryPolicy | None = None,
) -> str:
    """Regenerate one experiment and return its text rendering.

    ``workers``, ``cache``, ``obs`` and ``resilience`` reach the sweep
    engine for the experiments in :data:`SWEEP_EXPERIMENTS`; the others
    ignore them.
    """
    try:
        target = TARGETS[name]
    except KeyError:
        known = ", ".join(EXPERIMENT_IDS)
        raise ExperimentError(
            f"unknown experiment {name!r}; known: {known}"
        ) from None
    return _run_target(target, flow_scale, workers, cache, obs, resilience)
