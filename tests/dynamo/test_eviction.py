"""Fragment-cache capacity policies: flush-all vs FIFO eviction."""

import pytest

from repro.dynamo import Fragment, FragmentCache
from repro.errors import DynamoError


def _fragment(pid, size, at=0):
    return Fragment(
        path_id=pid, head_uid=pid * 10, num_instructions=size, created_at=at
    )


def test_unknown_policy_rejected():
    with pytest.raises(DynamoError):
        FragmentCache(100, policy="lru")


def test_fifo_evicts_oldest_first():
    cache = FragmentCache(10, policy="fifo")
    cache.emit(_fragment(1, 4, at=0))
    cache.emit(_fragment(2, 4, at=1))
    flushed = cache.emit(_fragment(3, 4, at=2))
    assert not flushed  # fifo never whole-flushes on capacity
    assert 1 not in cache  # oldest victim
    assert 2 in cache and 3 in cache
    assert cache.evictions == 1
    assert cache.flush_count == 0
    assert cache.occupancy == 8


def test_fifo_evicts_several_when_needed():
    cache = FragmentCache(10, policy="fifo")
    cache.emit(_fragment(1, 4))
    cache.emit(_fragment(2, 4))
    cache.emit(_fragment(3, 9))
    assert 1 not in cache and 2 not in cache
    assert 3 in cache
    assert cache.evictions == 2


def test_flush_policy_unchanged():
    cache = FragmentCache(10, policy="flush")
    cache.emit(_fragment(1, 6))
    flushed = cache.emit(_fragment(2, 6))
    assert flushed
    assert cache.flush_count == 1
    assert 1 not in cache and 2 in cache


def test_policies_preserve_budget_invariant():
    for policy in ("flush", "fifo"):
        cache = FragmentCache(20, policy=policy)
        for pid in range(25):
            cache.emit(_fragment(pid, 3 + pid % 5, at=pid))
            assert cache.occupancy <= cache.budget_instructions
