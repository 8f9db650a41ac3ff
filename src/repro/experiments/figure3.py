"""Figure 3 — noise rates vs profiled flow.

Same four-panel structure as Figure 2 with the noise metric: the
percentage of cold flow inadvertently included in the prediction set
(see :mod:`repro.metrics.quality` for the normalization note).
"""

from __future__ import annotations

from repro.experiments.engine.graph import TargetSpec
from repro.experiments.figure2 import FigureCurves, render_panel
from repro.workloads.spec import BENCHMARK_ORDER


def render_figure3(curves: FigureCurves) -> str:
    """All four panels of Figure 3 as text."""
    parts = [
        render_panel(
            curves.panel("path-profile"),
            "noise",
            "Figure 3(a): noise rate, path-profile based prediction",
        ),
        render_panel(
            curves.panel("path-profile", zoom=True),
            "noise",
            "Figure 3(b): zoom <=10% profiled flow (path-profile)",
        ),
        render_panel(
            curves.panel("net"),
            "noise",
            "Figure 3(c): noise rate, NET prediction",
        ),
        render_panel(
            curves.panel("net", zoom=True),
            "noise",
            "Figure 3(d): zoom <=10% profiled flow (NET)",
        ),
    ]
    return "\n\n".join(parts)


def _figure3_text(points, delays):
    """Render the figure from bare sweep points (artifact-graph entry)."""
    return render_figure3(
        FigureCurves(points=list(points), delays=tuple(delays))
    )


#: Artifact-graph declaration: Figure 3 shares Figure 2's cell nodes —
#: only its render differs (see repro.experiments.targets).
TARGET = TargetSpec(
    name="figure3",
    version="figure3-text-v1",
    benchmarks=tuple(BENCHMARK_ORDER),
    sweep=True,
    render_points=_figure3_text,
)
