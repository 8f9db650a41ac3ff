"""Classic hardware branch predictors (related work, paper §7).

The paper positions NET against the hardware lineage — two-level
adaptive prediction (Yeh & Patt), correlation-based schemes (Pan/So/
Rahmeh, McFarling's gshare) — and argues they answer a *different*
question: per-branch direction accuracy for fetch bandwidth, not hot
path identification, and their state is architecturally invisible to a
dynamic compiler.  These models make the comparison concrete: they
consume the same event batches as the software profilers, so one trace
yields both per-branch accuracy (here) and hot-path prediction quality
(:mod:`repro.prediction`).

All predictors share the ``predict → update`` interface over
conditional-branch events; unconditional transfers are ignored, exactly
as a direction predictor would.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ReproError
from repro.trace.batch import CODE_FALLTHROUGH, CODE_TAKEN, EventBatch


@dataclass
class BranchPredictionStats:
    """Outcome of simulating one predictor over one event stream."""

    scheme: str
    conditional_branches: int = 0
    correct: int = 0
    table_bits: int = 0

    @property
    def accuracy_percent(self) -> float:
        """Correct direction predictions as a percentage."""
        if self.conditional_branches == 0:
            return 0.0
        return 100.0 * self.correct / self.conditional_branches


class _SaturatingCounter:
    """A 2-bit saturating counter, the workhorse of 1990s predictors."""

    __slots__ = ("value",)

    def __init__(self, value: int = 1):
        self.value = value

    def predict(self) -> bool:
        return self.value >= 2

    def update(self, taken: bool) -> None:
        if taken:
            self.value = min(self.value + 1, 3)
        else:
            self.value = max(self.value - 1, 0)


class BranchPredictor(abc.ABC):
    """Direction predictor over conditional-branch events."""

    name: str = "abstract"

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome."""

    @property
    @abc.abstractmethod
    def table_bits(self) -> int:
        """Hardware state in bits (the space analog of counter space)."""

    def simulate(self, events: EventBatch) -> BranchPredictionStats:
        """Run over an event stream, scoring conditional branches.

        A conditional branch is a taken or fall-through event; its pc
        is the event's source block.
        """
        stats = BranchPredictionStats(scheme=self.name)
        kind = events.kind
        conditional = (kind == CODE_TAKEN) | (kind == CODE_FALLTHROUGH)
        for pc, taken in zip(
            events.src[conditional].tolist(),
            (kind[conditional] == CODE_TAKEN).tolist(),
        ):
            stats.conditional_branches += 1
            if self.predict(pc) == taken:
                stats.correct += 1
            self.update(pc, taken)
        stats.table_bits = self.table_bits
        return stats


class BimodalPredictor(BranchPredictor):
    """One 2-bit counter per branch PC (hashed into a fixed table)."""

    name = "bimodal"

    def __init__(self, table_size: int = 4096):
        if table_size < 1:
            raise ReproError("table_size must be positive")
        self.table_size = table_size
        self._counters = [_SaturatingCounter() for _ in range(table_size)]

    def _index(self, pc: int) -> int:
        return pc % self.table_size

    def predict(self, pc: int) -> bool:
        return self._counters[self._index(pc)].predict()

    def update(self, pc: int, taken: bool) -> None:
        self._counters[self._index(pc)].update(taken)

    @property
    def table_bits(self) -> int:
        return 2 * self.table_size


class GSharePredictor(BranchPredictor):
    """McFarling's gshare: global history XOR PC indexes the counters."""

    name = "gshare"

    def __init__(self, history_bits: int = 12):
        if not 1 <= history_bits <= 24:
            raise ReproError("history_bits must be in 1..24")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._history = 0
        self._counters = [
            _SaturatingCounter() for _ in range(1 << history_bits)
        ]

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._counters[self._index(pc)].predict()

    def update(self, pc: int, taken: bool) -> None:
        self._counters[self._index(pc)].update(taken)
        self._history = ((self._history << 1) | int(taken)) & self._mask

    @property
    def table_bits(self) -> int:
        return 2 * len(self._counters) + self.history_bits


class TwoLevelAdaptivePredictor(BranchPredictor):
    """Yeh & Patt's PAp-style predictor: per-branch history registers
    indexing per-branch pattern tables."""

    name = "two-level"

    def __init__(self, history_bits: int = 6):
        if not 1 <= history_bits <= 16:
            raise ReproError("history_bits must be in 1..16")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._histories: dict[int, int] = {}
        self._patterns: dict[tuple[int, int], _SaturatingCounter] = {}

    def predict(self, pc: int) -> bool:
        history = self._histories.get(pc, 0)
        counter = self._patterns.get((pc, history))
        return counter.predict() if counter is not None else True

    def update(self, pc: int, taken: bool) -> None:
        history = self._histories.get(pc, 0)
        counter = self._patterns.setdefault(
            (pc, history), _SaturatingCounter()
        )
        counter.update(taken)
        self._histories[pc] = ((history << 1) | int(taken)) & self._mask

    @property
    def table_bits(self) -> int:
        return (
            2 * len(self._patterns)
            + self.history_bits * len(self._histories)
        )


class StaticTakenPredictor(BranchPredictor):
    """Always-taken baseline (backward-taken heuristics reduce to this
    on loop-dominated code)."""

    name = "static-taken"

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass

    @property
    def table_bits(self) -> int:
        return 0


def compare_branch_predictors(
    events: EventBatch,
) -> list[BranchPredictionStats]:
    """Simulate the standard predictor zoo over one event stream."""
    predictors: list[BranchPredictor] = [
        StaticTakenPredictor(),
        BimodalPredictor(),
        GSharePredictor(),
        TwoLevelAdaptivePredictor(),
    ]
    return [predictor.simulate(events) for predictor in predictors]
