"""Regenerates Figure 3: noise rates vs profiled flow, both schemes."""

from conftest import emit

from repro.experiments import (
    interpolate_at_profiled,
    render_figure3,
    scheme_curve,
)


def test_figure3(full_traces, sweep_curves, results_dir):
    emit(results_dir, "figure3", render_figure3(sweep_curves))

    points = sweep_curves.points

    # Noise starts near 100% of the cold flow at small τ and collapses
    # with longer delays for every benchmark and scheme.  (Path-profile
    # prediction at τ=1 already excludes the execute-once cold paths,
    # which dominate ijpeg's cold flow — hence the looser lower bound.)
    for name in full_traces:
        for scheme in ("path-profile", "net"):
            curve = scheme_curve(points, name, scheme)
            floor = 90.0 if scheme == "net" else 70.0
            assert curve[0].noise_rate > floor, (name, scheme)
            assert curve[-1].noise_rate < 10.0, (name, scheme)

    # The paper's crossover: at longer prediction delays NET's
    # speculative tails include more cold flow than path-profile
    # prediction, which requires each path to prove itself τ times.
    worse = 0
    for name in full_traces:
        pp = scheme_curve(points, name, "path-profile")
        net = scheme_curve(points, name, "net")
        _, noise_pp = interpolate_at_profiled(pp, 40.0)
        _, noise_net = interpolate_at_profiled(net, 40.0)
        if noise_net >= noise_pp - 0.5:
            worse += 1
    assert worse >= 6  # NET is the noisier scheme at long delays
