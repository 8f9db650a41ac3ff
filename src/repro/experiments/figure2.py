"""Figure 2 — hit rates vs profiled flow.

Four panels: (a) path-profile based prediction over the full profiled
range, (b) its zoom into ≤10% profiled flow, (c–d) the same for NET.
Every benchmark contributes one curve; the ``Average`` curve averages
both coordinates per delay, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.engine.executor import run_sweep
from repro.experiments.engine.graph import TargetSpec
from repro.experiments.report import fmt, render_table
from repro.experiments.sweep import (
    DEFAULT_DELAYS,
    SweepPoint,
    average_curve,
    scheme_curve,
)
from repro.trace.recorder import PathTrace
from repro.workloads.spec import BENCHMARK_ORDER

#: The zoom window of the (b)/(d) panels.
ZOOM_PROFILED_PERCENT = 10.0


@dataclass
class FigureCurves:
    """All sweep points of a hit/noise figure, indexed per panel."""

    points: list[SweepPoint] = field(default_factory=list)
    delays: tuple[int, ...] = DEFAULT_DELAYS

    def benchmarks(self) -> list[str]:
        """Benchmark names present, paper order first."""
        present = {point.benchmark for point in self.points}
        ordered = [name for name in BENCHMARK_ORDER if name in present]
        extras = sorted(present - set(ordered) - {"Average"})
        return ordered + extras

    def panel(
        self, scheme: str, zoom: bool = False
    ) -> dict[str, list[SweepPoint]]:
        """Curves of one panel: benchmark → points (plus Average)."""
        curves: dict[str, list[SweepPoint]] = {}
        for name in self.benchmarks():
            curve = scheme_curve(self.points, name, scheme)
            if zoom:
                curve = [
                    point
                    for point in curve
                    if point.profiled_flow_percent <= ZOOM_PROFILED_PERCENT
                ]
            curves[name] = curve
        average = average_curve(self.points, scheme, self.delays)
        if zoom:
            average = [
                point
                for point in average
                if point.profiled_flow_percent <= ZOOM_PROFILED_PERCENT
            ]
        curves["Average"] = sorted(
            average, key=lambda point: point.profiled_flow_percent
        )
        return curves


def build_figure2(
    traces: dict[str, PathTrace],
    delays: tuple[int, ...] = DEFAULT_DELAYS,
) -> FigureCurves:
    """Sweep every benchmark in ``traces`` with both schemes.

    A serial, uncached :func:`~repro.experiments.engine.run_sweep`; the
    artifact graph calls the engine itself, with the CLI's engine
    flags, and renders the points it gets back.
    """
    points = run_sweep(traces, delays=delays)
    return FigureCurves(points=points, delays=delays)


def render_panel(
    curves: dict[str, list[SweepPoint]],
    value: str = "hit",
    title: str = "",
) -> str:
    """One panel as a text table: profiled% → value% per benchmark."""
    getter = {
        "hit": lambda p: p.hit_rate,
        "noise": lambda p: p.noise_rate,
    }[value]
    rows = []
    for name, curve in curves.items():
        for point in curve:
            rows.append(
                [
                    name,
                    point.delay,
                    fmt(point.profiled_flow_percent, 2),
                    fmt(getter(point), 2),
                ]
            )
    return render_table(
        headers=["benchmark", "delay", "profiled %", f"{value} %"],
        rows=rows,
        title=title,
    )


def render_figure2(curves: FigureCurves) -> str:
    """All four panels of Figure 2 as text."""
    parts = [
        render_panel(
            curves.panel("path-profile"),
            "hit",
            "Figure 2(a): hit rate, path-profile based prediction",
        ),
        render_panel(
            curves.panel("path-profile", zoom=True),
            "hit",
            "Figure 2(b): zoom <=10% profiled flow (path-profile)",
        ),
        render_panel(
            curves.panel("net"),
            "hit",
            "Figure 2(c): hit rate, NET prediction",
        ),
        render_panel(
            curves.panel("net", zoom=True),
            "hit",
            "Figure 2(d): zoom <=10% profiled flow (NET)",
        ),
    ]
    return "\n\n".join(parts)


def _figure2_text(points: list[SweepPoint], delays: tuple[int, ...]) -> str:
    """Render the figure from bare sweep points (artifact-graph entry)."""
    return render_figure2(FigureCurves(points=list(points), delays=tuple(delays)))


#: Artifact-graph declaration: Figure 2 is a sweep target whose cells
#: are the full benchmark × scheme × τ grid (see repro.experiments.targets).
TARGET = TargetSpec(
    name="figure2",
    version="figure2-text-v1",
    benchmarks=tuple(BENCHMARK_ORDER),
    sweep=True,
    render_points=_figure2_text,
)
