"""Dynamo simulator: config validation, cost model, flush monitor."""

import numpy as np
import pytest

from repro.dynamo import (
    DynamoConfig,
    DynamoSystem,
    PredictionRateMonitor,
    native_cycles,
    simulate_costs,
)
from repro.errors import DynamoError
from repro.prediction import NETPredictor
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from tests.conftest import make_path


def _hot_cold_trace(hot_n=2000, cold_n=40):
    table = PathTable()
    hot = make_path(table, 0, "1", (0, 1, 2))
    cold = make_path(table, 40, "0", (10, 11))
    ids = np.concatenate(
        [
            np.full(hot_n // 2, hot),
            np.full(cold_n, cold),
            np.full(hot_n // 2, hot),
        ]
    )
    return PathTrace(table, ids, name="hotcold"), hot, cold


def test_config_validation():
    with pytest.raises(DynamoError):
        DynamoConfig(interp_per_instr=1.0, native_per_instr=1.0)
    with pytest.raises(DynamoError):
        DynamoConfig(cache_budget_instructions=0)
    with pytest.raises(DynamoError):
        DynamoConfig(fragment_speedup=0.0)


def test_unknown_scheme_rejected():
    trace, _, _ = _hot_cold_trace()
    with pytest.raises(DynamoError):
        DynamoSystem().run(trace, "voodoo", 50)
    with pytest.raises(DynamoError):
        DynamoSystem().run_detailed(trace, "voodoo", 50)


def test_native_cycles():
    trace, _, _ = _hot_cold_trace(hot_n=10, cold_n=0)
    config = DynamoConfig()
    assert native_cycles(trace, config) == 10 * 9 * config.native_per_instr


def test_net_speedup_positive_on_hot_loop():
    trace, _, _ = _hot_cold_trace()
    run = DynamoSystem().run(trace, "net", 10)
    assert not run.bailed_out
    assert run.speedup_percent > 0


def test_path_profile_pays_instrumentation_inside_fragments():
    trace, _, _ = _hot_cold_trace()
    system = DynamoSystem()
    net = system.run(trace, "net", 10)
    pp = system.run(trace, "path-profile", 10)
    assert pp.breakdown.profiling > net.breakdown.profiling
    assert pp.speedup_percent < net.speedup_percent


def test_no_instrumented_fragments_narrows_gap():
    trace, _, _ = _hot_cold_trace()
    plain = DynamoConfig(instrument_fragments=False)
    pp_plain = DynamoSystem(plain).run(trace, "path-profile", 10)
    pp_instr = DynamoSystem().run(trace, "path-profile", 10)
    assert pp_plain.speedup_percent > pp_instr.speedup_percent


def test_amortization_disabled_reports_raw_run():
    trace, _, _ = _hot_cold_trace()
    raw = DynamoConfig(amortization=1.0)
    run = DynamoSystem(raw).run(trace, "net", 10)
    assert run.native_cycles == native_cycles(trace, raw)
    assert run.dynamo_cycles == pytest.approx(run.breakdown.total)


def test_detailed_matches_vectorized_structure():
    trace, _, _ = _hot_cold_trace()
    system = DynamoSystem()
    for scheme in ("net", "path-profile"):
        vec = system.run(trace, scheme, 25)
        det = system.run_detailed(trace, scheme, 25)
        assert vec.num_fragments == det.num_fragments
        assert vec.emitted_instructions == det.emitted_instructions
        assert det.breakdown.selection == pytest.approx(
            vec.breakdown.selection
        )
        assert det.breakdown.fragment_execution == pytest.approx(
            vec.breakdown.fragment_execution, rel=0.01
        )


#: NET selections the vectorized model charges one counter bump more
#: than the event-level NET, at τ = 50 and the engine test scale: the
#: selecting occurrence arrives by a backward branch at a head that an
#: earlier selection already made hot.  ijpeg's NET run bails out under
#: both models.
NET_HOT_HEAD_BUMPS = {
    "compress": 27,
    "gcc": 22,
    "go": 142,
    "li": 39,
    "m88ksim": 44,
    "perl": 70,
    "vortex": 36,
    "deltablue": 14,
}


@pytest.mark.parametrize("scheme", ["net", "path-profile"])
def test_detailed_agrees_with_vectorized_on_surrogates(
    all_small_traces, scheme
):
    """The two Dynamo models on real traces: exact where they share
    arithmetic, summation-order close on fragment execution and bit
    tracing, and NET profiling apart by a pinned number of bumps."""
    system = DynamoSystem()
    config = system.config
    for name, trace in all_small_traces.items():
        vec = system.run(trace, scheme, 50)
        det = system.run_detailed(trace, scheme, 50)
        assert vec.bailed_out == det.bailed_out, name
        if vec.bailed_out:
            continue
        assert vec.num_fragments == det.num_fragments, name
        assert vec.emitted_instructions == det.emitted_instructions, name
        for component in ("interpretation", "selection", "dispatch", "flushes"):
            assert getattr(vec.breakdown, component) == getattr(
                det.breakdown, component
            ), (name, component)
        assert det.breakdown.fragment_execution == pytest.approx(
            vec.breakdown.fragment_execution, rel=1e-9, abs=0
        ), name
        if scheme == "net":
            outcome = NETPredictor(50).run(trace)
            heads = trace.start_uids()[outcome.predicted_ids]
            hot_already = np.ones(len(heads), dtype=bool)
            hot_already[np.unique(heads, return_index=True)[1]] = False
            backward = trace.backward_arrival_mask()[outcome.prediction_times]
            bumps = np.count_nonzero(hot_already & backward)
            assert bumps == NET_HOT_HEAD_BUMPS[name]
            assert (
                vec.breakdown.profiling - det.breakdown.profiling
                == bumps * config.counter_cost
            ), name
        else:
            assert det.breakdown.profiling == pytest.approx(
                vec.breakdown.profiling, rel=1e-9, abs=0
            ), name


def test_bail_out_on_fragment_explosion():
    table = PathTable()
    ids = []
    # Thousands of distinct paths, each executed enough to materialize.
    for index in range(200):
        pid = make_path(
            table, index * 40, format(index, "09b"), (index * 3, index * 3 + 1)
        )
        ids += [pid] * 12
    trace = PathTrace(table, ids)
    config = DynamoConfig(bail_out_fragments=100)
    run = DynamoSystem(config).run(trace, "net", 5)
    assert run.bailed_out
    assert run.speedup_percent < 0  # bail-out costs a small overhead
    det = DynamoSystem(config).run_detailed(trace, "net", 5)
    assert det.bailed_out


def test_monitor_detects_spikes():
    monitor = PredictionRateMonitor(window=100, spike_factor=3.0, min_count=5)
    # Quiet baseline: one prediction per window for 6 windows.
    for end in range(100, 700, 100):
        assert not monitor.close_window(1, end)
    # Burst: 30 predictions in one window.
    assert monitor.close_window(30, 700)
    assert monitor.flush_recommendations == [700]
    # The flush restarts the history: no baseline yet, so no spike.
    assert not monitor.close_window(30, 800)
    assert monitor.flush_recommendations == [700]


def test_monitor_validation():
    with pytest.raises(DynamoError):
        PredictionRateMonitor(window=0)
    with pytest.raises(DynamoError):
        PredictionRateMonitor(spike_factor=1.0)


def test_steady_rate_reflects_cold_interpretation():
    """Paths that never materialize keep the steady rate above S_opt."""
    trace, hot, cold = _hot_cold_trace(hot_n=2000, cold_n=40)
    config = DynamoConfig()
    outcome = NETPredictor(5000).run(trace)  # nothing materializes
    run = simulate_costs(trace, outcome, config)
    assert run.steady_rate == pytest.approx(config.interp_per_instr, rel=0.05)
    fast = simulate_costs(trace, NETPredictor(5).run(trace), config)
    assert fast.steady_rate < 1.0


def test_run_render_mentions_scheme():
    trace, _, _ = _hot_cold_trace()
    run = DynamoSystem().run(trace, "net", 50)
    assert "net" in run.render()
