"""RetryPolicy: validation, and backoff that is exponential, capped,
jittered — and exactly reproducible."""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.resilience import RetryPolicy


def test_backoff_is_deterministic():
    a = RetryPolicy()
    b = RetryPolicy()
    schedule_a = [a.backoff_seconds(3, n) for n in range(1, 6)]
    schedule_b = [b.backoff_seconds(3, n) for n in range(1, 6)]
    assert schedule_a == schedule_b


def test_backoff_jitter_varies_with_coordinates():
    policy = RetryPolicy()
    assert policy.backoff_seconds(0, 1) != policy.backoff_seconds(1, 1)


def test_backoff_grows_exponentially_to_the_cap():
    policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.4)
    for attempt in range(1, 8):
        delay = policy.backoff_seconds(0, attempt)
        ceiling = min(0.4, 0.1 * (2 ** (attempt - 1)))
        # Jitter scales into [0.5, 1.0) of the exponential step.
        assert 0.5 * ceiling <= delay < ceiling
    assert policy.backoff_seconds(0, 50) < 0.4


def test_backoff_zeroth_attempt_is_free():
    assert RetryPolicy().backoff_seconds(0, 0) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"backoff_base": -0.1},
        {"backoff_base": 2.0, "backoff_cap": 1.0},
    ],
)
def test_invalid_policies_rejected(kwargs):
    """The serving client's policy fails as serving misuse."""
    with pytest.raises(ServingError):
        RetryPolicy(**kwargs)
