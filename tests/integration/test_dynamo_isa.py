"""Dynamo simulation over real ISA-program traces.

The concrete counterpart of Figure 5's message on genuinely executed
code: NET-driven Dynamo beats path-profile-driven Dynamo, and the
detailed and vectorized simulators agree on fragment structure.
"""

import pytest

from repro.dynamo import DynamoConfig, DynamoSystem
from repro.isa import run_to_completion
from repro.isa.programs import matmul, propagate, rle
from repro.trace import record_path_trace


def _trace(module, **kwargs):
    program = module.build()
    memory = module.make_memory(**kwargs)
    events, _ = run_to_completion(program, memory, max_steps=30_000_000)
    return record_path_trace(program.cfg, events, name=program.name)


@pytest.fixture(scope="module")
def system():
    return DynamoSystem(DynamoConfig(amortization=200.0))


@pytest.mark.parametrize(
    "module,kwargs",
    [
        (rle, {"seed": 3, "size": 5000}),
        (matmul, {"seed": 1, "k": 14}),
        (propagate, {"seed": 2, "sweeps": 40}),
    ],
)
def test_net_beats_path_profile_on_isa_traces(system, module, kwargs):
    trace = _trace(module, **kwargs)
    net = system.run(trace, "net", 10)
    pp = system.run(trace, "path-profile", 10)
    assert not net.bailed_out
    assert net.speedup_percent > pp.speedup_percent


def test_net_speedup_positive_on_loop_kernels(system):
    trace = _trace(matmul, seed=1, k=14)
    run = system.run(trace, "net", 10)
    assert run.speedup_percent > 5.0


def test_detailed_and_vectorized_agree_on_isa_trace(system):
    trace = _trace(rle, seed=3, size=5000)
    for scheme in ("net", "path-profile"):
        vec = system.run(trace, scheme, 10)
        det = system.run_detailed(trace, scheme, 10)
        assert vec.num_fragments == det.num_fragments
        assert vec.emitted_instructions == det.emitted_instructions
        assert det.breakdown.interpretation == pytest.approx(
            vec.breakdown.interpretation, rel=0.01
        )
