"""Fault plans: deterministic, picklable, and inert when not matched."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ExperimentError
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    crash_on,
    interrupt_on,
    plan,
)


def test_spec_fires_on_its_batch_only():
    spec = crash_on(batch=2)
    assert spec.fires(2)
    assert not spec.fires(1)  # other batches untouched
    assert not spec.fires(3)


def test_crash_raises_injected_fault():
    faults = plan(crash_on(batch=0))
    with pytest.raises(InjectedFault):
        faults.before(0)
    faults.before(1)  # other batches clean


def test_empty_plan_is_inert():
    FaultPlan().before(0)


def test_plan_is_picklable_for_pool_workers():
    faults = plan(crash_on(0), interrupt_on(3))
    clone = pickle.loads(pickle.dumps(faults))
    assert clone == faults
    with pytest.raises(InjectedFault):
        clone.before(0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "meteor", "batch": 0},
        {"kind": "corrupt", "batch": 0},
        {"kind": "hang", "batch": 0},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ExperimentError):
        FaultSpec(**kwargs)
