"""Figure 5 — Dynamo speedup over native with both prediction schemes.

Each scheme runs with prediction delays 10, 50 and 100 over the
benchmarks Dynamo processes without bail-out (compress, m88ksim, perl,
li, deltablue); the huge-path programs (gcc, go, ijpeg, vortex) bail out
to native execution, which :func:`bail_out_report` demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamo.stats import DynamoRun
from repro.dynamo.system import DynamoSystem
from repro.experiments.engine.graph import TargetSpec
from repro.experiments.report import fmt_signed_pct, render_table
from repro.trace.recorder import PathTrace
from repro.workloads.spec import BENCHMARK_ORDER, DYNAMO_BENCHMARKS

#: The prediction delays Figure 5 runs each scheme with.
FIGURE5_DELAYS = (10, 50, 100)

#: Scheme order of the figure's bars.
FIGURE5_SCHEMES = ("net", "path-profile")


@dataclass(frozen=True)
class Figure5Cell:
    """One bar of the figure."""

    benchmark: str
    scheme: str
    delay: int
    speedup_percent: float
    bailed_out: bool


def build_figure5(
    traces: dict[str, PathTrace],
    delays: tuple[int, ...] = FIGURE5_DELAYS,
) -> list[Figure5Cell]:
    """All cells: per benchmark, scheme and delay, plus averages."""
    system = DynamoSystem()
    cells: list[Figure5Cell] = []
    for name in DYNAMO_BENCHMARKS:
        if name not in traces:
            continue
        trace = traces[name]
        for scheme in FIGURE5_SCHEMES:
            for delay in delays:
                run = system.run(trace, scheme, delay)
                cells.append(
                    Figure5Cell(
                        benchmark=name,
                        scheme=scheme,
                        delay=delay,
                        speedup_percent=run.speedup_percent,
                        bailed_out=run.bailed_out,
                    )
                )
    for scheme in FIGURE5_SCHEMES:
        for delay in delays:
            group = [
                cell
                for cell in cells
                if cell.scheme == scheme
                and cell.delay == delay
                and cell.benchmark != "Average"
            ]
            if group:
                cells.append(
                    Figure5Cell(
                        benchmark="Average",
                        scheme=scheme,
                        delay=delay,
                        speedup_percent=sum(
                            cell.speedup_percent for cell in group
                        )
                        / len(group),
                        bailed_out=False,
                    )
                )
    return cells


def bail_out_report(traces: dict[str, PathTrace]) -> list[DynamoRun]:
    """Demonstrate the bail-outs of the excluded benchmarks at τ = 50."""
    system = DynamoSystem()
    return [
        system.run(traces[name], "net", 50)
        for name in BENCHMARK_ORDER
        if name not in DYNAMO_BENCHMARKS and name in traces
    ]


def render_figure5(cells: list[Figure5Cell]) -> str:
    """The regenerated Figure 5 as text."""
    benchmarks = []
    for cell in cells:
        if cell.benchmark not in benchmarks:
            benchmarks.append(cell.benchmark)
    rows = []
    for name in benchmarks:
        row = [name]
        for scheme in FIGURE5_SCHEMES:
            for delay in FIGURE5_DELAYS:
                match = [
                    cell
                    for cell in cells
                    if cell.benchmark == name
                    and cell.scheme == scheme
                    and cell.delay == delay
                ]
                if match:
                    text = fmt_signed_pct(match[0].speedup_percent)
                    if match[0].bailed_out:
                        text += " (bail)"
                    row.append(text)
                else:
                    row.append("-")
        rows.append(row)
    headers = ["benchmark"] + [
        f"{scheme[:4]}{delay}"
        for scheme in FIGURE5_SCHEMES
        for delay in FIGURE5_DELAYS
    ]
    return render_table(
        headers=headers,
        rows=rows,
        title="Figure 5: Dynamo speedup over native execution",
    )


def _figure5_text(traces: dict[str, PathTrace], flow_scale: float) -> str:
    """The full figure5 artifact: the speedup table plus the bail-outs.

    Both builders filter the trace dict themselves (the figure keeps the
    Dynamo-viable benchmarks, the bail-out report the excluded ones), so
    the target consumes every benchmark once.
    """
    text = render_figure5(build_figure5(traces=traces))
    lines = [text, "", "Bail-outs (excluded from the figure, τ=50):"]
    for run in bail_out_report(traces=traces):
        lines.append("  " + run.render())
    return "\n".join(lines)


#: Artifact-graph declaration.  The version tag also names the Dynamo
#: cost-model semantics: bump it when the simulator changes what a
#: speedup cell means (see repro.experiments.targets).
TARGET = TargetSpec(
    name="figure5",
    version="figure5-dynamo-v1",
    benchmarks=tuple(BENCHMARK_ORDER),
    build=_figure5_text,
)
