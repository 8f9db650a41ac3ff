"""Phased workloads for the §6.1 phase-change experiments.

A phased workload cycles through ``num_phases`` disjoint working sets:
each phase has its own group of hot regions (plus a small shared
background), so at every phase boundary a burst of previously-cold paths
turns hot — the prediction-rate spike Dynamo's flush heuristic watches
for — while the previous phase's paths become *phase-induced noise*:
still resident in the cache (and still counted by accumulated profiles)
but dead in the new phase.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.generator import Phase, WorkloadConfig
from repro.workloads.regions import RegionSpec


def phased_config(
    name: str = "phased",
    seed: int = 777,
    num_phases: int = 4,
    regions_per_phase: int = 150,
    background_regions: int = 8,
    flow: int = 400_000,
    iters_mean: float = 60.0,
    tails: int = 2,
) -> WorkloadConfig:
    """Build a phased workload configuration.

    Phase ``p`` draws almost all its flow from its own
    ``regions_per_phase`` regions; a small always-on background (10% of
    the weight) keeps some paths hot across every phase so the hot set is
    not perfectly partitioned.
    """
    if num_phases < 2:
        raise WorkloadError("a phased workload needs at least two phases")

    # One shared (frozen) spec for every region.
    regions = [
        RegionSpec(
            kind="loop",
            num_tails=tails,
            tail_skew=0.7,
            iters_mean=iters_mean,
            weight=1.0,
        )
    ] * (num_phases * regions_per_phase + background_regions)

    background_start = num_phases * regions_per_phase
    phases = []
    for p in range(num_phases):
        weights: dict[int, float] = {}
        start = p * regions_per_phase
        for index in range(start, start + regions_per_phase):
            weights[index] = 0.9 / regions_per_phase
        for index in range(background_start, len(regions)):
            weights[index] = 0.1 / background_regions
        phases.append(Phase(fraction=1.0 / num_phases, weights=weights))

    return WorkloadConfig(
        name=name,
        seed=seed,
        target_flow=flow,
        regions=regions,
        phases=phases,
        coverage_pass=False,
    )


def load_phased(
    num_phases: int = 4, flow: int = 400_000, seed: int = 777
) -> Workload:
    """A ready-to-run phased workload."""
    return Workload(
        phased_config(num_phases=num_phases, flow=flow, seed=seed)
    )


def phase_boundaries(config: WorkloadConfig) -> list[int]:
    """Approximate occurrence indices of the phase transitions."""
    boundaries = []
    position = 0.0
    for phase in config.phases[:-1]:
        position += phase.fraction
        boundaries.append(int(position * config.target_flow))
    return boundaries
