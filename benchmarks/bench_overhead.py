"""Profiling-scheme overhead comparison (paper §4).

Runs every profiler over one generated-program event stream and
tabulates counter space and dynamic profiling operations: NET's
head-only counting against bit tracing, Ball–Larus, k-bounded, edge and
block profiling.
"""

from conftest import emit

from repro.experiments.extended import overhead_rows
from repro.experiments.report import render_table


def test_profiling_overhead(results_dir):
    rows, num_events = overhead_rows()
    assert num_events > 100_000  # a substantial execution
    text = render_table(
        headers=["scheme", "counters", "profiling ops", "profiled units"],
        rows=[
            [row.scheme, row.counter_space, row.profiling_ops, row.num_units]
            for row in rows
        ],
        title=(
            f"Profiling overhead over {num_events:,} branch events "
            f"(paper §4)"
        ),
    )
    emit(results_dir, "overhead", text)

    by_scheme = {row.scheme: row for row in rows}
    heads = by_scheme["net-heads"]
    # NET's counter population and operation count are the smallest of
    # every scheme (§4.2: "even less profiling than block or branch
    # profiling schemes").
    for name, row in by_scheme.items():
        if name == "net-heads":
            continue
        assert heads.counter_space <= row.counter_space, name
        assert heads.profiling_ops <= row.profiling_ops, name
