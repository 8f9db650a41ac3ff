"""Regenerates Table 2: dynamic paths vs unique path heads."""

from conftest import emit

from repro.experiments import build_table2, render_table2


def test_table2(full_traces, results_dir):
    rows = build_table2(traces=full_traces)
    emit(results_dir, "table2", render_table2(rows))

    for row in rows:
        assert row.num_paths == row.paper_paths, row.benchmark
        assert row.num_heads == row.paper_heads, row.benchmark
