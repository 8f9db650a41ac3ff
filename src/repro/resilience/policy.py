"""Retry policy for the serving client's reconnects.

A :class:`RetryPolicy` is an immutable description of how much failure
:class:`~repro.serving.transport.ServingClient` tolerates before giving
up on an idempotent operation: how many times it may reconnect and
re-send, and how those retries are spaced.

Backoff is exponential with **deterministic jitter**: the jitter
fraction for (operation, attempt) is derived from a SHA-256 hash of
those coordinates, so two runs of the same client session retry on
exactly the same schedule — no hidden RNG, in keeping with the
repo-wide seeded-determinism rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ServingError


def _jitter_fraction(op_index: int, attempt: int) -> float:
    """Deterministic uniform-ish fraction in [0, 1) for one retry."""
    payload = f"{op_index}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the serving client responds to a lost connection.

    Parameters
    ----------
    max_retries:
        Retries per operation beyond the first attempt; ``0`` fails
        fast.
    backoff_base / backoff_cap:
        Retry *n* waits ``min(cap, base * 2**(n-1))`` seconds, scaled by
        a deterministic jitter factor in [0.5, 1.0).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ServingError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ServingError(
                "backoff must satisfy 0 <= backoff_base <= backoff_cap, "
                f"got base={self.backoff_base}, cap={self.backoff_cap}"
            )

    def backoff_seconds(self, op_index: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of one operation.

        Exponential in the attempt number, capped, and jittered
        deterministically so concurrent retries spread out the same way
        on every run.
        """
        if attempt < 1:
            return 0.0
        base = min(
            self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
        )
        return base * (0.5 + 0.5 * _jitter_fraction(op_index, attempt))
