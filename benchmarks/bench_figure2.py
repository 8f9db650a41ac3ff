"""Regenerates Figure 2: hit rates vs profiled flow, both schemes.

The figure reads the full prediction-delay sweep (9 benchmarks × 17
delays × 2 schemes); Figure 3 reuses the same sweep through the shared
session fixture.
"""

from conftest import emit

from repro.experiments import (
    build_figure2,
    interpolate_at_profiled,
    render_figure2,
    scheme_curve,
)


def test_figure2(full_traces, results_dir):
    curves = build_figure2(traces=full_traces)
    emit(results_dir, "figure2", render_figure2(curves))

    # Shape assertions from the paper's reading of the figure.
    points = curves.points
    for name in full_traces:
        for scheme in ("path-profile", "net"):
            curve = scheme_curve(points, name, scheme)
            # Hit rate is ~100% at τ→0 and collapses at huge τ.
            assert curve[0].hit_rate > 99.0, (name, scheme)
            assert curve[-1].hit_rate < 10.0, (name, scheme)

    # NET ≈ path-profile in the practically relevant zoom region.
    for name in full_traces:
        pp = scheme_curve(points, name, "path-profile")
        net = scheme_curve(points, name, "net")
        for profiled in (2.0, 5.0, 10.0):
            hit_pp, _ = interpolate_at_profiled(pp, profiled)
            hit_net, _ = interpolate_at_profiled(net, profiled)
            assert abs(hit_pp - hit_net) < 6.0, (name, profiled)

    # compress's hit rate falls fastest with profiled flow; gcc and go
    # fall slowest (paper §5.1).
    def hit_at(name, profiled):
        return interpolate_at_profiled(
            scheme_curve(points, name, "path-profile"), profiled
        )[0]

    assert hit_at("compress", 40.0) < hit_at("gcc", 40.0)
    assert hit_at("compress", 40.0) < hit_at("go", 40.0)
