"""Fault plans: deterministic, picklable, and inert when not matched."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ExperimentError
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_on,
    crash_on,
    plan,
)


def test_spec_fires_on_planned_attempts_only():
    flaky = crash_on(batch=2, times=2)
    assert flaky.fires(2, 0) and flaky.fires(2, 1)
    assert not flaky.fires(2, 2)  # third attempt succeeds
    assert not flaky.fires(1, 0)  # other batches untouched
    forever = crash_on(batch=2, times=None)
    assert forever.fires(2, 99)


def test_crash_raises_injected_fault():
    faults = plan(crash_on(batch=0))
    with pytest.raises(InjectedFault):
        faults.before(0, 0)
    faults.before(0, 1)  # second attempt is clean
    faults.before(1, 0)  # other batches clean


def test_corrupt_drops_a_point():
    faults = plan(corrupt_on(batch=0))
    assert faults.after(0, 0, [1, 2, 3]) == [1, 2]
    assert faults.after(0, 1, [1, 2, 3]) == [1, 2, 3]
    assert faults.after(1, 0, [1, 2, 3]) == [1, 2, 3]


def test_empty_plan_is_inert():
    faults = FaultPlan()
    faults.before(0, 0)
    assert faults.after(0, 0, [1]) == [1]


def test_plan_is_picklable_for_pool_workers():
    faults = plan(crash_on(0, times=2), corrupt_on(3))
    clone = pickle.loads(pickle.dumps(faults))
    assert clone == faults
    with pytest.raises(InjectedFault):
        clone.before(0, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "meteor", "batch": 0},
        {"kind": "crash", "batch": 0, "times": 0},
        {"kind": "hang", "batch": 0},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ExperimentError):
        FaultSpec(**kwargs)
