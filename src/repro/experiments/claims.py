"""The §5.1 headline claims, computed from the sweep.

The paper reads three summary numbers off Figures 2 and 3:

1. "at 10% profiled flow both path profile based and NET prediction
   reach a hit rate of about 97.5 on average";
2. "when profiling 10% of the execution, NET prediction yields about 56%
   noise, whereas path profile based prediction results in about 65%";
3. "with path profile based prediction noise is reduced to less than 10%
   when profiling about 35% percent of the execution … NET prediction
   needs to profile about 45%".

:func:`evaluate_claims` recomputes each from the average curves by
interpolation; EXPERIMENTS.md records measured vs paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.engine.graph import TargetSpec
from repro.experiments.figure2 import FigureCurves
from repro.experiments.report import fmt, render_table
from repro.experiments.sweep import SweepPoint, interpolate_at_profiled
from repro.workloads.spec import BENCHMARK_ORDER


@dataclass(frozen=True)
class ClaimResult:
    """One headline claim: the paper's value and the measured one."""

    claim: str
    scheme: str
    paper_value: float
    measured_value: float
    unit: str = "%"


def _average_curve_points(
    curves: FigureCurves, scheme: str
) -> list[SweepPoint]:
    panel = curves.panel(scheme)
    average = panel.get("Average")
    if not average:
        raise ExperimentError("sweep produced no Average curve")
    return average


def profiled_needed_for_noise(
    curve: list[SweepPoint], noise_target: float
) -> float:
    """Smallest profiled-flow % at which noise drops below ``target``.

    Walks the profiled-sorted curve and linearly interpolates the
    crossing.  Returns the curve's maximum profiled flow when the target
    is never reached.
    """
    previous = None
    for point in curve:
        if point.noise_rate < noise_target:
            if previous is None:
                return point.profiled_flow_percent
            x0, y0 = previous.profiled_flow_percent, previous.noise_rate
            x1, y1 = point.profiled_flow_percent, point.noise_rate
            if y0 == y1:
                return x1
            alpha = (y0 - noise_target) / (y0 - y1)
            return x0 + alpha * (x1 - x0)
        previous = point
    return curve[-1].profiled_flow_percent if curve else 0.0


def evaluate_claims(curves: FigureCurves) -> list[ClaimResult]:
    """Recompute the three §5.1 claims from the Figure 2/3 sweep."""
    results = []

    for scheme in ("path-profile", "net"):
        average = _average_curve_points(curves, scheme)
        hit_at_10, noise_at_10 = interpolate_at_profiled(average, 10.0)
        results.append(
            ClaimResult(
                claim="average hit rate at 10% profiled flow",
                scheme=scheme,
                paper_value=97.5,
                measured_value=hit_at_10,
            )
        )
        results.append(
            ClaimResult(
                claim="average noise at 10% profiled flow",
                scheme=scheme,
                paper_value=65.0 if scheme == "path-profile" else 56.0,
                measured_value=noise_at_10,
            )
        )
        results.append(
            ClaimResult(
                claim="profiled flow needed for <10% noise",
                scheme=scheme,
                paper_value=35.0 if scheme == "path-profile" else 45.0,
                measured_value=profiled_needed_for_noise(average, 10.0),
            )
        )
    return results


def render_claims(results: list[ClaimResult]) -> str:
    """The claims report as text."""
    return render_table(
        headers=["claim", "scheme", "paper", "measured"],
        rows=[
            [
                result.claim,
                result.scheme,
                fmt(result.paper_value),
                fmt(result.measured_value),
            ]
            for result in results
        ],
        title="Section 5.1 headline claims (measured vs paper)",
    )


def _claims_text(points: list[SweepPoint], delays: tuple[int, ...]) -> str:
    """Evaluate and render the claims from bare sweep points."""
    curves = FigureCurves(points=list(points), delays=tuple(delays))
    return render_claims(evaluate_claims(curves=curves))


#: Artifact-graph declaration: the claims read off the same sweep cells
#: as Figures 2/3 (see repro.experiments.targets).
TARGET = TargetSpec(
    name="claims",
    version="claims-text-v1",
    benchmarks=tuple(BENCHMARK_ORDER),
    sweep=True,
    render_points=_claims_text,
)
