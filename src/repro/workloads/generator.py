"""Assembly of path traces from region mixes and visit schedules.

A workload is a set of regions plus a schedule of visits.  The generator
interleaves region visits — each visit running that region's paths for
one activation — until the target flow is reached.  Weights may change
across *phases* (contiguous fractions of the flow), which is how the
phased workloads of paper §6.1 are modelled.

The schedule only needs each visit's length, so a visit draws and
records, and the path ids are rendered in bulk once per batch of
schedule choices (:class:`~repro.workloads.regions.VisitRenderer`):
memory stays bounded by the batch, and the Python work per visit is two
generator calls.

Every region is visited once up front (the *coverage pass*) so a
workload's dynamic path and head counts equal their design values; this
models the warm-up sweep real programs make over their code during
start-up and keeps Table 1/2 calibration deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.trace.recorder import PathTrace
from repro.workloads.pathmodel import PathFactory
from repro.workloads.regions import RegionSpec, VisitRenderer, build_run

#: How many region choices to draw per RNG batch while scheduling.
_CHOICE_BATCH = 4096


@dataclass(frozen=True)
class Phase:
    """One schedule phase: a flow fraction plus per-region weights.

    ``weights`` maps region index → weight; regions absent from the map
    get weight 0 in this phase.  ``None`` means "use every region's own
    spec weight" (the single-phase default).
    """

    fraction: float
    weights: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise WorkloadError(
                f"phase fraction must be in (0, 1], got {self.fraction}"
            )


@dataclass
class WorkloadConfig:
    """Declarative description of a complete workload.

    ``coverage_pass`` controls the up-front visit of every region (see
    :class:`WorkloadGenerator`); phased workloads disable it so each
    phase's working set stays cleanly separated.
    """

    name: str
    seed: int
    target_flow: int
    regions: list[RegionSpec]
    phases: list[Phase] = field(default_factory=list)
    coverage_pass: bool = True

    def __post_init__(self) -> None:
        if self.target_flow < 1:
            raise WorkloadError("target_flow must be positive")
        if not self.regions:
            raise WorkloadError("a workload needs at least one region")
        if self.phases:
            total = sum(phase.fraction for phase in self.phases)
            if not 0.999 <= total <= 1.001:
                raise WorkloadError(
                    f"phase fractions must sum to 1, got {total}"
                )


class WorkloadGenerator:
    """Materializes a :class:`PathTrace` from a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig):
        self.config = config

    def generate(self) -> PathTrace:
        """Generate the workload's path trace (deterministic per seed)."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        factory = PathFactory()
        # Region i is seeded with seed·1,000,003 + i; each run of equal
        # consecutive specs is built in one pass.
        regions: list = []
        for spec, run in itertools.groupby(config.regions):
            first = config.seed * 1_000_003 + len(regions)
            count = sum(1 for _ in run)
            regions.extend(
                build_run(spec, factory, range(first, first + count))
            )
        renderer = VisitRenderer(regions)
        visits = [region.visit for region in regions]
        pieces: list[np.ndarray] = []
        emitted = 0

        if config.coverage_pass:
            # Coverage pass: visit every region once, hottest first so
            # the kernels dominate the prefix the way warmed-up programs
            # do.
            order = sorted(
                range(len(regions)),
                key=lambda index: -config.regions[index].weight,
            )
            lengths = [visits[index]() for index in order]
            pieces.append(renderer.render(order, lengths))
            emitted = sum(lengths)

        phases = config.phases or [Phase(fraction=1.0)]
        base_weights = np.array(
            [spec.weight for spec in config.regions], dtype=np.float64
        )
        for phase in phases:
            phase_budget = int(round(phase.fraction * config.target_flow))
            phase_goal = min(emitted + phase_budget, config.target_flow)
            weights = self._phase_weights(base_weights, phase)
            emitted = self._run_phase(
                rng, visits, renderer, weights, pieces, emitted, phase_goal
            )

        # Keep scheduling under the final phase's weights until the
        # target is reached (coverage may have eaten into early budgets).
        final_weights = self._phase_weights(base_weights, phases[-1])
        emitted = self._run_phase(
            rng,
            visits,
            renderer,
            final_weights,
            pieces,
            emitted,
            config.target_flow,
        )

        ids = np.concatenate(pieces)[: config.target_flow]
        # Free the pieces before the path table is built.
        del pieces
        return PathTrace(factory.table, ids, name=config.name)

    def _phase_weights(
        self, base: np.ndarray, phase: Phase
    ) -> np.ndarray:
        if phase.weights is None:
            weights = base.copy()
        else:
            weights = np.zeros(len(base), dtype=np.float64)
            for index, weight in phase.weights.items():
                weights[index] = weight
        total = weights.sum()
        if total <= 0:
            raise WorkloadError("phase weights sum to zero")
        return weights / total

    def _run_phase(
        self,
        rng: np.random.Generator,
        visits: list,
        renderer: VisitRenderer,
        weights: np.ndarray,
        pieces: list[np.ndarray],
        emitted: int,
        goal: int,
    ) -> int:
        """Visit regions drawn by ``weights`` until ``emitted`` reaches
        ``goal``, rendering one piece per batch of choices."""
        while emitted < goal:
            indices = rng.choice(len(visits), size=_CHOICE_BATCH, p=weights)
            lengths = []
            for index in indices.tolist():
                length = visits[index]()
                lengths.append(length)
                emitted += length
                if emitted >= goal:
                    break
            pieces.append(renderer.render(indices[: len(lengths)], lengths))
        return emitted
