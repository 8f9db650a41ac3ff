"""Figure 4 — NET counter space normalized to path-profile counter space.

One bar per benchmark (heads ÷ dynamic paths) plus the average.  Note the
paper's internal inconsistency: the abstract says NET "uses 60% less
counter space", §5.2 says NET "uses only about 60% of the counter space",
while Table 2's own numbers average to a ratio of ≈0.37 (≈63% less).  We
reproduce the Table 2 computation and report the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.engine.graph import TargetSpec
from repro.experiments.report import fmt, render_table
from repro.experiments.table2 import Table2Row, build_table2
from repro.trace.recorder import PathTrace
from repro.workloads.spec import BENCHMARK_ORDER

#: Figure 4 bar values recomputed from the paper's own Table 2.
PAPER_RATIOS = {
    "compress": 143 / 230,
    "gcc": 8_873 / 36_738,
    "go": 1_813 / 29_629,
    "ijpeg": 669 / 62_125,
    "li": 710 / 1_391,
    "m88ksim": 651 / 1_426,
    "perl": 1_053 / 2_776,
    "vortex": 3_414 / 5_825,
    "deltablue": 268 / 505,
}


@dataclass(frozen=True)
class Figure4Bar:
    """One normalized counter-space bar."""

    benchmark: str
    ratio: float
    paper_ratio: float


def build_figure4(traces: dict[str, PathTrace]) -> list[Figure4Bar]:
    """Per-benchmark bars plus the Average bar."""
    rows: list[Table2Row] = build_table2(traces)
    bars = [
        Figure4Bar(
            benchmark=row.benchmark,
            ratio=row.ratio,
            paper_ratio=PAPER_RATIOS.get(row.benchmark, float("nan")),
        )
        for row in rows
    ]
    if bars:
        bars.append(
            Figure4Bar(
                benchmark="Average",
                ratio=sum(bar.ratio for bar in bars) / len(bars),
                paper_ratio=sum(bar.paper_ratio for bar in bars) / len(bars),
            )
        )
    return bars


def render_figure4(bars: list[Figure4Bar]) -> str:
    """The regenerated Figure 4 as text (with ASCII bars)."""
    rows = []
    for bar in bars:
        width = int(round(bar.ratio * 40))
        rows.append(
            [
                bar.benchmark,
                fmt(bar.ratio, 3),
                fmt(bar.paper_ratio, 3),
                "#" * width,
            ]
        )
    return render_table(
        headers=["benchmark", "NET/path-profile", "(paper)", "bar"],
        rows=rows,
        title=(
            "Figure 4: NET counter space normalized to path-profile "
            "counter space"
        ),
    )


def _figure4_text(traces: dict[str, PathTrace], flow_scale: float) -> str:
    """Build and render from already-materialized traces."""
    return render_figure4(build_figure4(traces=traces))


#: Artifact-graph declaration (see repro.experiments.targets).
TARGET = TargetSpec(
    name="figure4",
    version="figure4-text-v1",
    benchmarks=tuple(BENCHMARK_ORDER),
    build=_figure4_text,
)
