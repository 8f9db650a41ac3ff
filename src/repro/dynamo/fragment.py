"""Fragments and the software code cache.

The object model behind Dynamo's cache: a :class:`Fragment` is an
optimized copy of one hot path; the :class:`FragmentCache` stores
fragments, tracks its occupancy against a budget and supports the flush
operation the phase heuristic (§6.1) relies on.
Used by the event-level simulator; the vectorized Figure 5 model tracks
the same quantities as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DynamoError


@dataclass
class Fragment:
    """An optimized trace resident in the code cache."""

    path_id: int
    head_uid: int
    num_instructions: int
    created_at: int
    executions: int = 0
    last_executed: int = -1


class FragmentCache:
    """The software code cache: bounded and flushable.

    Two capacity policies are provided:

    * ``"flush"`` (Dynamo's choice) — when a new fragment does not fit,
      drop *everything*.  Brutal, but it keeps fragment linking
      trivially correct (no dangling linked exits) and doubles as the
      phase reaction;
    * ``"fifo"`` — evict oldest-first until the new fragment fits, the
      conventional alternative Dynamo argued against (a real cache must
      also unlink every fragment pointing at the victim; this one keeps
      no links, since the cost models charge nothing for a
      fragment-to-fragment transfer).
    """

    def __init__(self, budget_instructions: int, policy: str = "flush"):
        if budget_instructions < 1:
            raise DynamoError("cache budget must be positive")
        if policy not in ("flush", "fifo"):
            raise DynamoError(f"unknown cache policy {policy!r}")
        self.budget_instructions = budget_instructions
        self.policy = policy
        self._fragments: dict[int, Fragment] = {}
        self.occupancy = 0
        self.flush_count = 0
        self.total_emitted = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def lookup(self, path_id: int) -> Fragment | None:
        """The fragment for ``path_id``, if resident."""
        return self._fragments.get(path_id)

    def __contains__(self, path_id: int) -> bool:
        return path_id in self._fragments

    def __len__(self) -> int:
        return len(self._fragments)

    # ------------------------------------------------------------------
    def emit(self, fragment: Fragment) -> bool:
        """Install ``fragment``, making room per the capacity policy.

        Returns True when installing triggered a whole-cache flush
        (never under the ``"fifo"`` policy, which evicts piecemeal).
        """
        flushed = False
        if fragment.path_id in self._fragments:
            return flushed
        if (
            self.occupancy + fragment.num_instructions
            > self.budget_instructions
        ):
            if self.policy == "flush":
                self.flush()
                flushed = True
            else:
                self._evict_until_fits(fragment.num_instructions)
        self._fragments[fragment.path_id] = fragment
        self.occupancy += fragment.num_instructions
        self.total_emitted += fragment.num_instructions
        return flushed

    def _evict_until_fits(self, needed: int) -> None:
        """FIFO eviction, oldest fragment first."""
        while (
            self._fragments
            and self.occupancy + needed > self.budget_instructions
        ):
            victim = self._fragments.pop(next(iter(self._fragments)))
            self.occupancy -= victim.num_instructions
            self.evictions += 1

    def flush(self) -> None:
        """Drop every fragment (Dynamo's phase-change reaction)."""
        self._fragments.clear()
        self.occupancy = 0
        self.flush_count += 1

    def fragments(self) -> list[Fragment]:
        """Resident fragments, insertion-ordered."""
        return list(self._fragments.values())
