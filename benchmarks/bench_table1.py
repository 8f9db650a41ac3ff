"""Regenerates Table 1: the benchmark set and its 0.1% hot sets."""

from conftest import emit

from repro.experiments import build_table1, render_table1


def test_table1(full_traces, results_dir):
    rows = build_table1(traces=full_traces)
    emit(results_dir, "table1", render_table1(rows))

    # Shape assertions: dynamic paths equal the paper's counts exactly
    # (pinned by the workload design); hot-set sizes within ±10%; hot
    # coverage within ±6 points.
    for row in rows:
        assert row.num_paths == row.paper_paths, row.benchmark
        assert (
            abs(row.hot_paths - row.paper_hot_paths)
            <= max(0.1 * row.paper_hot_paths, 4)
        ), row.benchmark
        assert abs(row.hot_flow_percent - row.paper_hot_flow_percent) <= 6.0, (
            row.benchmark
        )
