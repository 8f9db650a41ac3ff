"""Regenerates Figure 4: NET counter space normalized to path-profile."""

from conftest import emit

from repro.experiments import build_figure4, render_figure4


def test_figure4(full_traces, results_dir):
    bars = build_figure4(traces=full_traces)
    emit(results_dir, "figure4", render_figure4(bars))

    by_name = {bar.benchmark: bar for bar in bars}
    # Every per-benchmark ratio reproduces the paper's Table 2-derived
    # bar to within 0.02 (the workload design pins both populations).
    for name, bar in by_name.items():
        if name == "Average":
            continue
        assert abs(bar.ratio - bar.paper_ratio) < 0.02, name
    # The average bar lands at the paper's ≈0.38 (the text's "60%"
    # claim is internally inconsistent with its own Table 2 — see
    # EXPERIMENTS.md).
    assert abs(by_name["Average"].ratio - 0.378) < 0.02
