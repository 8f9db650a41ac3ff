"""Edge profiling vs path profiling, offline (related work §7).

Reproduces the Ball/Mataga/Sagiv-style comparison the paper cites as the
offline analog of its own result: edge profiles recover most of the hot
path profile's *flow* but lose branch correlation, overestimating paths
through blocks with interleaved successors.
"""

from conftest import emit

from repro.experiments.extended import showdown_rows
from repro.experiments.report import fmt, render_table


def test_edge_vs_path_showdown(full_traces, results_dir):
    results = showdown_rows(full_traces)
    text = render_table(
        headers=[
            "benchmark",
            "hot paths",
            "recovered",
            "recovery %",
            "hot flow %",
            "overestimate ×",
        ],
        rows=[
            [
                result.benchmark,
                result.true_hot,
                result.recovered,
                fmt(result.recovery_percent),
                fmt(result.hot_flow_coverage_percent),
                fmt(1 + result.mean_overestimate, 2),
            ]
            for result in results
        ],
        title="Edge vs path profiles: the offline showdown (§7)",
    )
    emit(results_dir, "showdown", text)

    # The BMS result: edge-derived candidates cover a large share of the
    # hot flow on every benchmark...
    for result in results:
        assert result.hot_flow_coverage_percent > 60.0, result.benchmark
    # ...but edges overestimate correlated paths somewhere in the suite
    # (they cannot tell them apart: that is what paths add).
    assert any(result.mean_overestimate > 0.05 for result in results)
