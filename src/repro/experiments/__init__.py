"""Experiment drivers: one module per paper table/figure.

``run_targets`` builds the paper's evaluation artifacts (``table1`` …
``figure5``, the §5.1 headline ``claims`` and the §6.1 ``phases``
study; :data:`EXPERIMENT_IDS` lists them) through the incremental
artifact graph, the only driver there is: ``repro run`` keeps the
graph's state in a cache directory, and ``repro run --no-cache`` runs
the same graph over a throwaway one.  Each builder takes the traces
(or sweep curves) it computes over.
"""

from repro.experiments.claims import (
    ClaimResult,
    evaluate_claims,
    profiled_needed_for_noise,
    render_claims,
)
from repro.experiments.data import benchmark_traces
from repro.experiments.engine import (
    CacheStats,
    SweepCache,
    SweepTask,
    plan_sweep,
    run_sweep,
    trace_digest,
)
from repro.experiments.figure2 import (
    FigureCurves,
    build_figure2,
    render_figure2,
)
from repro.experiments.figure3 import render_figure3
from repro.experiments.figure4 import Figure4Bar, build_figure4, render_figure4
from repro.experiments.figure5 import (
    FIGURE5_DELAYS,
    Figure5Cell,
    bail_out_report,
    build_figure5,
    render_figure5,
)
from repro.experiments.phases import (
    PhaseReport,
    prediction_rate_series,
    render_phase_report,
    run_phase_experiment,
)
from repro.experiments.report import render_table
from repro.experiments.sweep import (
    DEFAULT_DELAYS,
    SweepPoint,
    average_curve,
    interpolate_at_profiled,
    scheme_curve,
    sweep_trace,
)
from repro.experiments.table1 import Table1Row, build_table1, render_table1
from repro.experiments.table2 import Table2Row, build_table2, render_table2
from repro.experiments.targets import (
    EXPERIMENT_IDS,
    TARGETS,
    TargetRun,
    build_graph,
    plan_targets,
    run_targets,
)

__all__ = [
    "DEFAULT_DELAYS",
    "EXPERIMENT_IDS",
    "FIGURE5_DELAYS",
    "TARGETS",
    "CacheStats",
    "ClaimResult",
    "Figure4Bar",
    "Figure5Cell",
    "FigureCurves",
    "PhaseReport",
    "SweepCache",
    "SweepPoint",
    "SweepTask",
    "Table1Row",
    "Table2Row",
    "TargetRun",
    "average_curve",
    "build_graph",
    "bail_out_report",
    "benchmark_traces",
    "build_figure2",
    "build_figure4",
    "build_figure5",
    "build_table1",
    "build_table2",
    "evaluate_claims",
    "interpolate_at_profiled",
    "plan_sweep",
    "plan_targets",
    "prediction_rate_series",
    "profiled_needed_for_noise",
    "render_claims",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_phase_report",
    "render_table",
    "render_table1",
    "render_table2",
    "run_phase_experiment",
    "run_sweep",
    "run_targets",
    "scheme_curve",
    "sweep_trace",
    "trace_digest",
]
