"""Hardware schemes from related work (§7) on real program traces.

Branch-direction predictors answer a different question than hot-path
prediction; this bench quantifies both sides on the same executions:
per-branch accuracy and state of the predictor zoo, and the trace
cache's line population compared with NET's path predictions.
"""

from conftest import emit

from repro.experiments.extended import hardware_rows
from repro.experiments.report import fmt, render_table


def test_hardware_comparison(results_dir):
    predictor_rows, cache_rows = hardware_rows()
    text = render_table(
        headers=["program", "predictor", "accuracy %", "state bits"],
        rows=[
            [r.program, r.scheme, fmt(r.accuracy_percent, 2), r.table_bits]
            for r in predictor_rows
        ],
        title="Branch-direction predictors (related work §7)",
    )
    text += "\n\n" + render_table(
        headers=[
            "program",
            "trace-cache hit %",
            "distinct lines",
            "NET predictions",
            "NET hit %",
        ],
        rows=[
            [
                r.program,
                fmt(r.cache_hit_percent, 2),
                r.distinct_lines,
                r.net_predictions,
                fmt(r.net_hit_percent, 2),
            ]
            for r in cache_rows
        ],
        title="Trace cache vs NET on the same executions",
    )
    emit(results_dir, "hardware", text)

    # Dynamic predictors beat static-taken on every program.
    by_program: dict[str, dict[str, float]] = {}
    for row in predictor_rows:
        by_program.setdefault(row.program, {})[row.scheme] = (
            row.accuracy_percent
        )
    for program, accuracies in by_program.items():
        assert accuracies["bimodal"] > accuracies["static-taken"] - 1e-9, (
            program
        )
    # The trace cache captures a substantial share of the fetch stream
    # once warm, but — unlike NET (hit rates >95% on the same runs) —
    # data-dependent path interleavings thrash its direct-mapped lines.
    for row in cache_rows:
        assert row.cache_hit_percent > 40.0, row.program
        assert row.net_hit_percent > 95.0, row.program
