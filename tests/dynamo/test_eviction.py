"""The eviction study's FIFO cache, the alternative to Dynamo's flush-all.

``run_detailed`` models only the flush-all policy (its capacity flushes
are held to the oracle in ``tests/dynamo/test_detailed.py``); the
eviction study replays NET's emissions through a FIFO cache instead.
"""

from repro.experiments.extended import _fifo_replay


def test_fifo_evicts_oldest_first():
    resident, evictions = _fifo_replay([(1, 4), (2, 4), (3, 4)], budget=10)
    assert list(resident) == [2, 3]  # the oldest went
    assert evictions == 1
    assert sum(resident.values()) == 8


def test_fifo_evicts_several_when_needed():
    resident, evictions = _fifo_replay([(1, 4), (2, 4), (3, 9)], budget=10)
    assert list(resident) == [3]
    assert evictions == 2


def test_policies_preserve_budget_invariant():
    """FIFO occupancy never exceeds the budget after an emission."""
    emissions = [(pid, 3 + pid % 5) for pid in range(25)]
    for end in range(1, len(emissions) + 1):
        resident, _ = _fifo_replay(emissions[:end], budget=20)
        assert sum(resident.values()) <= 20
