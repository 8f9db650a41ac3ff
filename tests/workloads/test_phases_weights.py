"""Phase scheduling inside the workload generator."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    Phase,
    RegionSpec,
    WorkloadConfig,
    WorkloadGenerator,
)
from tests.conftest import head_sequence


def _two_group_config(flow=60_000):
    regions = [
        RegionSpec(kind="loop", num_tails=1, iters_mean=20, weight=1.0)
        for _ in range(8)
    ]
    phases = [
        Phase(fraction=0.5, weights={i: 1.0 for i in range(4)}),
        Phase(fraction=0.5, weights={i: 1.0 for i in range(4, 8)}),
    ]
    return WorkloadConfig(
        name="two-phase",
        seed=3,
        target_flow=flow,
        regions=regions,
        phases=phases,
        coverage_pass=False,
    )


def test_phase_weights_route_flow():
    trace = WorkloadGenerator(_two_group_config()).generate()
    half = trace.flow // 2
    first_heads = set(map(int, np.unique(head_sequence(trace)[:half])))
    second_heads = set(map(int, np.unique(head_sequence(trace)[half:])))
    # A region visit can straddle the boundary, so allow one overlap.
    assert len(first_heads & second_heads) <= 2
    assert first_heads and second_heads


def test_zero_weight_phase_rejected():
    config = _two_group_config()
    config.phases[0] = Phase(fraction=0.5, weights={0: 0.0})
    with pytest.raises(WorkloadError):
        WorkloadGenerator(config).generate()


def test_single_phase_default_weights():
    regions = [
        RegionSpec(kind="loop", num_tails=1, iters_mean=10, weight=w)
        for w in (10.0, 0.001)
    ]
    config = WorkloadConfig(
        name="skewed", seed=1, target_flow=20_000, regions=regions
    )
    trace = WorkloadGenerator(config).generate()
    heads = head_sequence(trace)
    dominant_head = trace.table.path(0).start_uid
    share = float(np.mean(heads == dominant_head))
    assert share > 0.9  # the heavy region dominates the schedule


def test_coverage_pass_toggle_affects_prefix():
    config = _two_group_config()
    config.coverage_pass = True
    with_coverage = WorkloadGenerator(config).generate()
    config2 = _two_group_config()
    without = WorkloadGenerator(config2).generate()
    # With coverage, all 8 heads appear early; without, only phase 1's.
    early_with = set(map(int, np.unique(head_sequence(with_coverage)[:5000])))
    early_without = set(map(int, np.unique(head_sequence(without)[:5000])))
    assert len(early_with) >= len(early_without)
    assert len(early_with) == 8
