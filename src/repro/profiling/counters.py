"""Counter tables with space and update accounting.

All profiling schemes count *something* — paths, edges, blocks, heads.
:class:`CounterTable` is the shared hash-table-with-bookkeeping they use,
so space consumption (paper §5.2) and dynamic update counts (paper §4's
runtime overhead) fall out of every scheme uniformly.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.errors import ProfilingError


class CounterTable:
    """A keyed counter table that tracks its own cost figures.

    Attributes
    ----------
    updates:
        Total number of increment operations performed.
    high_water:
        Maximum number of counters ever allocated (the space figure).
    """

    def __init__(self, name: str = "counters"):
        self.name = name
        self._counts: dict[Hashable, int] = {}
        self.updates = 0
        self.high_water = 0

    def bump(self, key: Hashable) -> None:
        """Increment ``key``'s counter by one."""
        self._counts[key] = self._counts.get(key, 0) + 1
        self.updates += 1
        if len(self._counts) > self.high_water:
            self.high_water = len(self._counts)

    def bump_many(
        self, keys: Iterable[Hashable], amounts: Iterable[int]
    ) -> None:
        """Apply many increments in one call, with per-bump accounting.

        Equivalent to ``bump(key)`` repeated ``amount`` times for
        each pair — ``updates`` grows by the *total* increment count and
        ``high_water`` by the final table size (exact, because a bump
        sequence only ever grows the table) — so a batched profiler
        reports the cost figures of one bump per profiled event.
        """
        counts = self._counts
        total = 0
        for key, amount in zip(keys, amounts):
            if amount < 0:
                raise ProfilingError(
                    "cannot bump a counter by a negative amount"
                )
            counts[key] = counts.get(key, 0) + amount
            total += amount
        self.updates += total
        if len(counts) > self.high_water:
            self.high_water = len(counts)

    def items(self) -> Iterator[tuple[Hashable, int]]:
        """Iterate over (key, count) pairs."""
        return iter(self._counts.items())
