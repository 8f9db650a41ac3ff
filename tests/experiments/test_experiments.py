"""Experiment drivers at reduced scale: structure and shape assertions."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENT_IDS,
    benchmark_traces,
    build_figure2,
    build_figure4,
    build_figure5,
    build_table1,
    build_table2,
    evaluate_claims,
    interpolate_at_profiled,
    scheme_curve,
    sweep_trace,
)
from repro.experiments.sweep import SweepPoint, average_curve, make_predictor
from repro.experiments.targets import target_for
from tests.experiments.scratch_oracle import run_experiment

SMALL_DELAYS = (1, 10, 100, 1000, 10_000)


@pytest.fixture(scope="module")
def two_traces():
    """deltablue + compress at reduced scale, shared across this module."""
    return benchmark_traces(names=["compress", "deltablue"], flow_scale=0.35)


def test_sweep_points_structure(small_deltablue):
    points = sweep_trace(small_deltablue, delays=SMALL_DELAYS)
    assert len(points) == 2 * len(SMALL_DELAYS)
    schemes = {point.scheme for point in points}
    assert schemes == {"path-profile", "net"}


def test_sweep_profiled_flow_increases_with_delay(small_deltablue):
    points = sweep_trace(small_deltablue, delays=SMALL_DELAYS)
    for scheme in ("path-profile", "net"):
        curve = [p for p in points if p.scheme == scheme]
        profiled = [p.profiled_flow_percent for p in curve]
        assert profiled == sorted(profiled)


def test_hit_rate_anchors(small_deltablue):
    points = sweep_trace(small_deltablue, delays=(0, 200_000))
    for point in points:
        if point.delay == 0:
            assert point.hit_rate == pytest.approx(100.0)
        else:
            assert point.hit_rate < 5.0


def test_interpolation(small_deltablue):
    points = sweep_trace(small_deltablue, delays=SMALL_DELAYS)
    curve = scheme_curve(points, small_deltablue.name, "net")
    hit, noise = interpolate_at_profiled(curve, 5.0)
    assert 0 <= hit <= 100 and 0 <= noise <= 100
    with pytest.raises(ExperimentError):
        interpolate_at_profiled([], 5.0)


def test_average_curve():
    a = SweepPoint("x", "net", 10, 1.0, 90.0, 50.0, 5, 4)
    b = SweepPoint("y", "net", 10, 3.0, 70.0, 30.0, 7, 6)
    averaged = average_curve([a, b], "net", (10,))
    assert len(averaged) == 1
    assert averaged[0].benchmark == "Average"
    assert averaged[0].hit_rate == pytest.approx(80.0)
    assert averaged[0].profiled_flow_percent == pytest.approx(2.0)


def test_make_predictor_rejects_unknown():
    with pytest.raises(ExperimentError):
        make_predictor("oracle", 10)


def test_table1_rows(two_traces):
    rows = build_table1(traces=two_traces)
    assert [row.benchmark for row in rows] == ["compress", "deltablue"]
    compress = rows[0]
    assert compress.num_paths == compress.paper_paths
    assert compress.hot_flow_percent > 90


def test_table2_rows(two_traces):
    rows = build_table2(traces=two_traces)
    for row in rows:
        assert row.num_heads == row.paper_heads
        assert 0 < row.ratio < 1


def test_figure4_matches_paper_ratios(two_traces):
    bars = build_figure4(traces=two_traces)
    by_name = {bar.benchmark: bar for bar in bars}
    for name in ("compress", "deltablue"):
        assert by_name[name].ratio == pytest.approx(
            by_name[name].paper_ratio, abs=0.02
        )
    assert "Average" in by_name


def test_figure2_panels(two_traces):
    curves = build_figure2(traces=two_traces, delays=SMALL_DELAYS)
    panel = curves.panel("net")
    assert set(panel) == {"compress", "deltablue", "Average"}
    zoom = curves.panel("net", zoom=True)
    for curve in zoom.values():
        assert all(p.profiled_flow_percent <= 10.0 for p in curve)


def test_figure2_net_tracks_path_profile_at_low_delay(two_traces):
    """The paper's core result at reduced scale: NET ≈ path-profile."""
    curves = build_figure2(traces=two_traces, delays=SMALL_DELAYS)
    for name in two_traces:
        pp = scheme_curve(curves.points, name, "path-profile")
        net = scheme_curve(curves.points, name, "net")
        hit_pp, _ = interpolate_at_profiled(pp, 5.0)
        hit_net, _ = interpolate_at_profiled(net, 5.0)
        assert abs(hit_pp - hit_net) < 5.0


def test_figure5_cells(two_traces):
    cells = build_figure5(
        traces={"compress": two_traces["compress"]}, delays=(10, 50)
    )
    benchmarks = {cell.benchmark for cell in cells}
    assert benchmarks == {"compress", "Average"}
    net50 = [
        c for c in cells if c.benchmark == "compress"
        and c.scheme == "net" and c.delay == 50
    ][0]
    pp50 = [
        c for c in cells if c.benchmark == "compress"
        and c.scheme == "path-profile" and c.delay == 50
    ][0]
    assert net50.speedup_percent > pp50.speedup_percent


def test_claims_structure(two_traces):
    curves = build_figure2(traces=two_traces, delays=SMALL_DELAYS)
    results = evaluate_claims(curves=curves)
    assert len(results) == 6
    hit_claims = [r for r in results if "hit rate" in r.claim]
    for claim in hit_claims:
        assert claim.measured_value > 80.0


def test_registry_lists_all_experiments():
    assert set(EXPERIMENT_IDS) == {
        "table1",
        "table2",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "claims",
        "phases",
    }


def test_registry_rejects_unknown():
    with pytest.raises(ExperimentError, match="unknown experiment"):
        target_for("figure99")


def test_registry_renders_table2_text():
    text = run_experiment("table2", flow_scale=0.05)
    assert "Table 2" in text
    assert "compress" in text
