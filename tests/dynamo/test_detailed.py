"""The event-level Dynamo loop equals its object-model oracle exactly.

``DynamoSystem.run_detailed`` keeps the fragment cache as a dict from
path id to last execution, applies the flush-all capacity policy inline
and hands the §6.1 monitor one prediction count per closed window.
:mod:`tests.dynamo.detailed_oracle` keeps the loop it replaced, with
its ``Fragment`` objects, ``FragmentCache`` and a monitor polled at
every occurrence.  Every :class:`~repro.dynamo.stats.DynamoRun` field,
floats included, must equal the oracle's with ``==``, and the monitor
must call for flushes at the same occurrences.

The inputs reach every branch of the loop: capacity flushes alone
(path-profile on perl), phase flushes alone (the phased trace at the
default budget) and both in one run (NET on ijpeg and perl at the
tight budget), a bail-out on fragments (NET on ijpeg at the default
budget) and on flushes (the phased trace at flow 0.1), and measured
fragment sizes.
"""

from __future__ import annotations

import pytest

from repro.dynamo.config import DynamoConfig
from repro.dynamo.flush import PredictionRateMonitor
from repro.dynamo.system import SCHEMES, DynamoSystem, measured_fragment_sizes
from repro.experiments.phases import phases_config
from repro.isa import run_to_completion
from repro.isa.programs import rle
from repro.trace import record_path_trace
from repro.workloads.base import Workload
from tests.dynamo import detailed_oracle as oracle

#: Both bail-outs off, so that the flushes run to the end of the trace.
NO_BAIL_OUT = {"bail_out_flushes": 10**9, "bail_out_fragments": 10**9}
#: A budget that go, ijpeg and perl overflow at the engine test scale.
TIGHT = DynamoConfig(cache_budget_instructions=2_000, **NO_BAIL_OUT)


def _check(config, trace, scheme, delay=50, window=None, sizes=None):
    """Run both loops on one input; return the production run."""
    monitor = reference = None
    if window is not None:
        monitor = PredictionRateMonitor(window=window)
        reference = oracle.PredictionRateMonitor(window=window)
    run = DynamoSystem(config).run_detailed(
        trace, scheme, delay, monitor=monitor, fragment_sizes=sizes
    )
    expected = oracle.run_detailed(
        config, trace, scheme, delay, monitor=reference, fragment_sizes=sizes
    )
    assert run == expected, (trace.name, scheme, config, window)
    if monitor is not None:
        assert (
            monitor.flush_recommendations == reference.flush_recommendations
        )
    return run


@pytest.mark.parametrize(
    "name",
    [
        "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl",
        "vortex", "deltablue",
    ],
)
def test_surrogates_equal_oracle(all_small_traces, name):
    trace = all_small_traces[name]
    _check(DynamoConfig(), trace, "net")
    _check(TIGHT, trace, "net", window=2_000)
    _check(TIGHT, trace, "path-profile", window=2_000)


@pytest.fixture(scope="module")
def phased():
    """The phased trace at flow 0.3 and the phases target's window."""
    recipe = phases_config(0.3)
    return Workload(recipe).trace(), max(recipe.target_flow // 100, 1000)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_phased_trace_equals_oracle(phased, scheme):
    trace, window = phased
    for config in (
        DynamoConfig(amortization=1.0),
        DynamoConfig(
            amortization=1.0, cache_budget_instructions=3_000, **NO_BAIL_OUT
        ),
    ):
        _check(config, trace, scheme, window=window)


def test_bail_out_on_flushes_equals_oracle():
    trace = Workload(phases_config(0.1)).trace()
    run = _check(DynamoConfig(cache_budget_instructions=3_000), trace, "net")
    assert run.bailed_out
    assert run.flushes == 5


def test_measured_fragment_sizes_equal_oracle():
    program = rle.build()
    events, _ = run_to_completion(program, rle.make_memory(seed=3, size=5000))
    trace = record_path_trace(program.cfg, events, name="rle")
    sizes = measured_fragment_sizes(program, trace)
    for scheme in SCHEMES:
        _check(
            DynamoConfig(amortization=200.0), trace, scheme, delay=10,
            sizes=sizes,
        )
