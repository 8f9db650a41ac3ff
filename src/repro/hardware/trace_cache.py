"""A trace-cache model (Rotenberg/Bennett/Smith, cited in paper §7).

The trace cache captures dynamic instruction sequences — up to ``n``
blocks / ``m`` branches — keyed by start address plus branch outcomes,
to raise fetch bandwidth.  The paper's argument is that this hardware
path capture is *not available* to a dynamic compiler (its contents are
microarchitectural) and that its selection criterion (fetch bandwidth)
differs from hot-path prediction; this model lets the reproduction
measure that overlap: the cache's line population and hit rate versus
NET's predicted paths on identical traces.

The fill policy follows the classic design: on a fetch miss the
subsequent committed blocks are collected into a fill buffer and the
completed line is installed (direct-mapped by start block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.trace.batch import (
    CODE_FALLTHROUGH,
    CODE_TAKEN,
    HALT_DST,
    EventBatch,
)


@dataclass(frozen=True)
class TraceLine:
    """One cached trace: a block sequence with its branch outcomes."""

    start: int
    blocks: tuple[int, ...]
    outcomes: tuple[int, ...]


@dataclass
class TraceCacheStats:
    """Fetch statistics of a simulation run."""

    fetches: int = 0
    hits: int = 0
    lines_installed: int = 0
    lines_replaced: int = 0
    resident_lines: int = 0
    #: Distinct (start, outcomes) line identities ever installed.
    distinct_lines: set[tuple] = field(default_factory=set)

    @property
    def hit_rate_percent(self) -> float:
        """Fraction of fetch groups served from the trace cache."""
        if self.fetches == 0:
            return 0.0
        return 100.0 * self.hits / self.fetches


class TraceCache:
    """Direct-mapped trace cache over basic-block sequences.

    Parameters
    ----------
    num_sets:
        Number of direct-mapped sets (indexed by start block uid).
    max_blocks / max_branches:
        Line-capacity limits, as in the original design (e.g. 16
        instructions / 3 branches scaled to block granularity here).
    """

    def __init__(
        self,
        num_sets: int = 512,
        max_blocks: int = 6,
        max_branches: int = 3,
    ):
        if num_sets < 1 or max_blocks < 1 or max_branches < 0:
            raise ReproError("invalid trace cache geometry")
        self.num_sets = num_sets
        self.max_blocks = max_blocks
        self.max_branches = max_branches
        self._sets: dict[int, TraceLine] = {}
        self.stats = TraceCacheStats()

    # ------------------------------------------------------------------
    def _set_index(self, start: int) -> int:
        return start % self.num_sets

    def lookup(self, start: int) -> TraceLine | None:
        """The line whose start block is ``start``, if resident."""
        line = self._sets.get(self._set_index(start))
        if line is not None and line.start == start:
            return line
        return None

    def install(self, line: TraceLine) -> None:
        """Install ``line``, replacing any conflicting resident line."""
        index = self._set_index(line.start)
        if index in self._sets:
            self.stats.lines_replaced += 1
        self._sets[index] = line
        self.stats.lines_installed += 1
        self.stats.distinct_lines.add((line.start, line.outcomes))
        self.stats.resident_lines = len(self._sets)

    # ------------------------------------------------------------------
    def simulate(self, events: EventBatch, entry_uid: int) -> TraceCacheStats:
        """Fetch-simulate an event stream.

        At each fetch point the cache is probed with the current block;
        a hit requires the resident line's recorded branch outcomes to
        match the actual upcoming outcomes (the line is then consumed
        whole).  On a miss, a fill buffer collects blocks/outcomes until
        the line limits are reached and installs the line.
        """
        # Materialize the block/outcome streams first: the blocks
        # entered up to the halt, and the outcome (1 taken, 0 not) of
        # the conditional branch ending block ``i``.
        halts = np.flatnonzero(events.dst == HALT_DST)
        stop = int(halts[0]) if halts.size else len(events)
        dst = events.dst[:stop]
        kind = events.kind[:stop]
        blocks: list[int] = [entry_uid, *dst.tolist()]
        conditional = np.flatnonzero(
            (kind == CODE_TAKEN) | (kind == CODE_FALLTHROUGH)
        )
        outcome_at = dict(
            zip(
                conditional.tolist(),
                (kind[conditional] == CODE_TAKEN).astype(int).tolist(),
            )
        )
        position = 0
        while position < len(blocks):
            self.stats.fetches += 1
            line = self.lookup(blocks[position])
            if line is not None and self._matches(
                line, blocks, outcome_at, position
            ):
                self.stats.hits += 1
                position += len(line.blocks)
                continue
            consumed = self._fill(blocks, outcome_at, position)
            position += consumed
        return self.stats

    def _matches(self, line, blocks, outcome_at, position) -> bool:
        end = position + len(line.blocks)
        if end > len(blocks):
            return False
        return tuple(blocks[position:end]) == line.blocks

    def _fill(self, blocks, outcome_at, position) -> int:
        taken: list[int] = []
        count = 0
        while (
            position + count < len(blocks)
            and count < self.max_blocks
            and len(taken) <= self.max_branches
        ):
            index = position + count
            bit = outcome_at.get(index)
            if bit is not None:
                if len(taken) == self.max_branches:
                    break
                taken.append(bit)
            count += 1
        count = max(count, 1)
        line = TraceLine(
            start=blocks[position],
            blocks=tuple(blocks[position : position + count]),
            outcomes=tuple(taken),
        )
        self.install(line)
        return count
