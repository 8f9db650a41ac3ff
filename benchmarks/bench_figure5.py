"""Regenerates Figure 5: Dynamo speedups with NET vs path-profile.

Each scheme runs with prediction delays 10, 50 and 100 over the
non-bailing benchmarks; the excluded huge-path programs are demonstrated
to bail out at the τ=50 operating point.
"""

from conftest import emit

from repro.experiments import bail_out_report, build_figure5, render_figure5
from repro.experiments.figure5 import FIGURE5_SCHEMES
from repro.workloads import DYNAMO_BENCHMARKS


def test_figure5(full_traces, results_dir):
    dynamo_traces = {
        name: trace
        for name, trace in full_traces.items()
        if name in DYNAMO_BENCHMARKS
    }
    cells = build_figure5(traces=dynamo_traces)
    excluded = {
        name: trace
        for name, trace in full_traces.items()
        if name not in DYNAMO_BENCHMARKS
    }
    bails = bail_out_report(traces=excluded)
    text = render_figure5(cells)
    text += "\n\nBail-outs (excluded from the figure, τ=50):\n"
    text += "\n".join("  " + run.render() for run in bails)
    emit(results_dir, "figure5", text)

    def cell(name, scheme, delay):
        return [
            c
            for c in cells
            if c.benchmark == name and c.scheme == scheme and c.delay == delay
        ][0]

    # NET produces speedups in every Figure 5 program at every delay.
    for name in DYNAMO_BENCHMARKS:
        for delay in (10, 50, 100):
            assert cell(name, "net", delay).speedup_percent > 0, (name, delay)

    # NET beats path-profile based prediction everywhere.
    for name in DYNAMO_BENCHMARKS:
        for delay in (10, 50, 100):
            assert (
                cell(name, "net", delay).speedup_percent
                > cell(name, "path-profile", delay).speedup_percent
            ), (name, delay)

    # Path-profile based prediction only achieves speedups in perl and
    # deltablue (paper §6).
    for name in DYNAMO_BENCHMARKS:
        pp50 = cell(name, "path-profile", 50).speedup_percent
        if name in ("perl", "deltablue"):
            assert pp50 > 0, name
        else:
            assert pp50 < 0, name

    # NET averages over 15% (paper: "averaging over 15%").
    net50_avg = cell("Average", "net", 50).speedup_percent
    assert net50_avg > 12.0

    # Speedups decline with longer prediction delays.
    for scheme in FIGURE5_SCHEMES:
        avg10 = cell("Average", scheme, 10).speedup_percent
        avg100 = cell("Average", scheme, 100).speedup_percent
        assert avg100 < avg10, scheme

    # The huge-path programs bail out.
    assert all(run.bailed_out for run in bails)
