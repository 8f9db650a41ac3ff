"""Retry policy for fault-tolerant sweep execution.

A :class:`RetryPolicy` is an immutable description of how much failure
the executor tolerates before giving up: how many times a batch may be
retried and how retries are spaced.

Backoff is exponential with **deterministic jitter**: the jitter
fraction for (batch, attempt) is derived from a SHA-256 hash of the
policy seed and those coordinates, so two runs of the same sweep retry
on exactly the same schedule.  Retried results themselves are already
deterministic (every cell is a pure function of its inputs), so the
seeded jitter keeps the *entire* execution — results and timing
structure — reproducible, which is what lets the equivalence suite
assert that a retried sweep is byte-identical to a fault-free one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ExperimentError


def _jitter_fraction(seed: int, batch_index: int, attempt: int) -> float:
    """Deterministic uniform-ish fraction in [0, 1) for one retry."""
    payload = f"{seed}:{batch_index}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the sweep executor responds to failing work.

    Parameters
    ----------
    max_retries:
        Retries per batch beyond the first attempt; ``0`` fails fast.
    backoff_base / backoff_cap:
        Retry *n* waits ``min(cap, base * 2**(n-1))`` seconds, scaled by
        a deterministic jitter factor in [0.5, 1.0).
    jitter_seed:
        Seed of the deterministic jitter; same seed → same schedule.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ExperimentError(
                "backoff must satisfy 0 <= backoff_base <= backoff_cap, "
                f"got base={self.backoff_base}, cap={self.backoff_cap}"
            )

    def backoff_seconds(self, batch_index: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of one batch.

        Exponential in the attempt number, capped, and jittered
        deterministically so concurrent retries spread out the same way
        on every run.
        """
        if attempt < 1:
            return 0.0
        base = min(
            self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
        )
        return base * (
            0.5 + 0.5 * _jitter_fraction(self.jitter_seed, batch_index, attempt)
        )


#: The executor's default: a couple of retries — resilient without
#: changing any healthy run's behavior.
DEFAULT_POLICY = RetryPolicy()
