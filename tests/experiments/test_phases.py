"""The §6.1 experiment at the scales the phases target runs by default.

At flow 0.02 and 0.1 the prediction-rate monitor never fires, so
``run_phase_experiment`` reports its monitored run as the run without
flushing too; each check below compares against a fresh computation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.dynamo.config import DynamoConfig
from repro.dynamo.stats import DynamoRun
from repro.dynamo.system import DynamoSystem
from repro.experiments.phases import (
    phases_config,
    prediction_rate_series,
    run_phase_experiment,
)
from repro.prediction.net import NETPredictor
from repro.workloads.base import Workload


@pytest.mark.parametrize("flow_scale", [0.02, 0.1])
def test_run_no_flush_is_a_monitorless_run(flow_scale):
    config = phases_config(flow_scale)
    report = run_phase_experiment(config)
    fresh = DynamoSystem(DynamoConfig(amortization=1.0)).run_detailed(
        Workload(config).trace(), "net", 50
    )
    assert report.detected_flushes == []
    for field in dataclasses.fields(DynamoRun):
        assert getattr(report.run_no_flush, field.name) == getattr(
            fresh, field.name
        ), field.name


def test_prediction_rate_series_counts_each_window():
    trace = Workload(phases_config(0.02)).trace()
    window = 4_000
    series = prediction_rate_series(trace, delay=50, window=window)
    times = [int(t) for t in NETPredictor(50).run(trace).prediction_times]
    assert [start for start, _ in series] == list(
        range(0, trace.flow, window)
    )
    for start, count in series:
        assert count == sum(1 for t in times if start <= t < start + window)
    assert sum(count for _, count in series) == len(times)
