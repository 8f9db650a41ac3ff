"""Table 1 — the benchmark set.

For each benchmark: total number of dynamic paths, total flow, the size
of the 0.1% HotPath set and the percentage of flow it captures.  Paper
reference values are attached to every row so the regenerated table shows
measured-vs-paper side by side (flows are scaled; see DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.engine.graph import TargetSpec
from repro.experiments.report import fmt, render_table
from repro.metrics.hotpaths import hot_path_set
from repro.trace.recorder import PathTrace
from repro.workloads.spec import BENCHMARK_ORDER, BENCHMARKS


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's Table 1 cell values, measured and paper."""

    benchmark: str
    num_paths: int
    flow: int
    hot_paths: int
    hot_flow_percent: float
    paper_paths: int
    paper_flow_millions: int
    paper_hot_paths: int
    paper_hot_flow_percent: float


def table1_row(name: str, trace: PathTrace) -> Table1Row:
    """Measure one benchmark's row."""
    spec = BENCHMARKS[name]
    hot = hot_path_set(trace)
    executed = int((trace.freqs() > 0).sum())
    return Table1Row(
        benchmark=name,
        num_paths=executed,
        flow=trace.flow,
        hot_paths=hot.num_hot,
        hot_flow_percent=hot.captured_flow_percent,
        paper_paths=spec.paper_paths,
        paper_flow_millions=spec.paper_flow_millions,
        paper_hot_paths=spec.paper_hot_paths,
        paper_hot_flow_percent=spec.paper_hot_flow_percent,
    )


def build_table1(traces: dict[str, PathTrace]) -> list[Table1Row]:
    """One row per benchmark in ``traces``, in the paper's order."""
    return [
        table1_row(name, traces[name])
        for name in BENCHMARK_ORDER
        if name in traces
    ]


def render_table1(rows: list[Table1Row]) -> str:
    """The regenerated Table 1 as text."""
    return render_table(
        headers=[
            "benchmark",
            "#paths",
            "(paper)",
            "flow",
            "(paper M)",
            "hot #paths",
            "(paper)",
            "%flow",
            "(paper)",
        ],
        rows=[
            [
                row.benchmark,
                f"{row.num_paths:,}",
                f"{row.paper_paths:,}",
                f"{row.flow:,}",
                f"{row.paper_flow_millions:,}",
                row.hot_paths,
                row.paper_hot_paths,
                fmt(row.hot_flow_percent),
                fmt(row.paper_hot_flow_percent),
            ]
            for row in rows
        ],
        title="Table 1: benchmark set (0.1% HotPath sets)",
    )


def _table1_text(traces: dict[str, PathTrace], flow_scale: float) -> str:
    """Build and render from already-materialized traces."""
    return render_table1(build_table1(traces=traces))


#: Artifact-graph declaration (see repro.experiments.targets).
TARGET = TargetSpec(
    name="table1",
    version="table1-text-v1",
    benchmarks=tuple(BENCHMARK_ORDER),
    build=_table1_text,
)
