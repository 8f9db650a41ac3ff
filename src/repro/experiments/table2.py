"""Table 2 — number of dynamic paths vs unique path heads.

The counter-population comparison behind NET's space claim: one counter
per unique path head (backward-taken-branch target) against one per
dynamic path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.engine.graph import TargetSpec
from repro.experiments.report import render_table
from repro.metrics.space import counter_space
from repro.trace.recorder import PathTrace
from repro.workloads.spec import BENCHMARK_ORDER, BENCHMARKS


@dataclass(frozen=True)
class Table2Row:
    """One benchmark's paths/heads counts, measured and paper."""

    benchmark: str
    num_paths: int
    num_heads: int
    paper_paths: int
    paper_heads: int

    @property
    def ratio(self) -> float:
        """Heads per path (Figure 4's bar value)."""
        if self.num_paths == 0:
            return 0.0
        return self.num_heads / self.num_paths


def table2_row(name: str, trace: PathTrace) -> Table2Row:
    """Measure one benchmark's row."""
    spec = BENCHMARKS[name]
    space = counter_space(trace)
    return Table2Row(
        benchmark=name,
        num_paths=space.num_paths,
        num_heads=space.num_heads,
        paper_paths=spec.paper_paths,
        paper_heads=spec.paper_heads,
    )


def build_table2(traces: dict[str, PathTrace]) -> list[Table2Row]:
    """One row per benchmark in ``traces``, in the paper's order."""
    return [
        table2_row(name, traces[name])
        for name in BENCHMARK_ORDER
        if name in traces
    ]


def render_table2(rows: list[Table2Row]) -> str:
    """The regenerated Table 2 as text."""
    return render_table(
        headers=[
            "benchmark",
            "#paths",
            "(paper)",
            "#unique heads",
            "(paper)",
        ],
        rows=[
            [
                row.benchmark,
                f"{row.num_paths:,}",
                f"{row.paper_paths:,}",
                f"{row.num_heads:,}",
                f"{row.paper_heads:,}",
            ]
            for row in rows
        ],
        title="Table 2: number of paths and unique path heads",
    )


def _table2_text(traces: dict[str, PathTrace], flow_scale: float) -> str:
    """Build and render from already-materialized traces."""
    return render_table2(build_table2(traces=traces))


#: Artifact-graph declaration (see repro.experiments.targets).
TARGET = TargetSpec(
    name="table2",
    version="table2-text-v1",
    benchmarks=tuple(BENCHMARK_ORDER),
    build=_table2_text,
)
