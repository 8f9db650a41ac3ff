"""End-to-end pipelines: ISA programs → traces → predictors → metrics."""

import pytest

from repro.isa import run_to_completion
from repro.isa.programs import rle, sort, stackvm
from repro.metrics import counter_space, evaluate_prediction, hot_path_set
from repro.prediction import BoaPredictor, NETPredictor, PathProfilePredictor
from repro.trace import record_path_trace


@pytest.fixture(scope="module")
def rle_trace():
    program = rle.build()
    memory = rle.make_memory(seed=3, size=4000)
    events, _ = run_to_completion(program, memory)
    return record_path_trace(program.cfg, events, name="rle")


def test_rle_has_dominant_hot_paths(rle_trace):
    hot = hot_path_set(rle_trace, fraction=0.001)
    assert hot.num_hot >= 1
    assert hot.captured_flow_percent > 95  # compress-like dominance


def test_net_matches_path_profile_on_real_program(rle_trace):
    hot = hot_path_set(rle_trace, fraction=0.001)
    for tau in (5, 20):
        pp = evaluate_prediction(
            rle_trace, hot, PathProfilePredictor(tau).run(rle_trace)
        )
        net = evaluate_prediction(
            rle_trace, hot, NETPredictor(tau).run(rle_trace)
        )
        assert abs(pp.hit_rate - net.hit_rate) < 3.0
        # NET needs far less counter space.
        space = counter_space(rle_trace)
        assert space.num_heads < space.num_paths


def test_boa_on_interpreter_workload():
    program = stackvm.build()
    bytecode = stackvm.sum_program(300)
    events, _ = run_to_completion(program, stackvm.make_memory(bytecode))
    trace = record_path_trace(program.cfg, events, name="vm")
    hot = hot_path_set(trace, fraction=0.001)
    net = evaluate_prediction(trace, hot, NETPredictor(10).run(trace))
    boa = evaluate_prediction(trace, hot, BoaPredictor(10).run(trace))
    # The interpreter's dispatch loop interleaves tails, so constructing
    # paths from isolated branch frequencies captures no more than NET.
    assert boa.hit_rate <= net.hit_rate + 1e-9
    assert net.hit_rate > 50


def test_sort_trace_prediction_quality():
    program = sort.build()
    memory = sort.make_memory(seed=5, size=300)
    events, _ = run_to_completion(program, memory)
    trace = record_path_trace(program.cfg, events, name="sort")
    hot = hot_path_set(trace, fraction=0.001)
    quality = evaluate_prediction(trace, hot, NETPredictor(20).run(trace))
    assert quality.hit_rate > 80
    assert (
        quality.hits_flow + quality.noise_flow + quality.profiled_flow
        == trace.flow
    )
