"""Young–Smith k-bounded general path profiling (paper §2).

A *k-bounded general path* is an intraprocedural path of at most ``k``
branches; unlike Ball–Larus forward paths it may include backward edges.
The profiler keeps a FIFO queue of the most recently executed ``k``
branches and bumps the counter of the current window each time a new
branch enters the queue (the sliding-window formulation of Young & Smith's
lazy update).

Costs mirror the paper's discussion: one queue update plus one table
update per executed branch — strictly more dynamic work than NET's
head-only counting, and a counter space keyed by distinct k-windows.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.counters import CounterTable
from repro.trace.batch import CODE_CALL, CODE_RETURN, HALT_DST, EventBatch


def _window_ranks(codes: np.ndarray, k: int) -> np.ndarray:
    """Dense ids for every length-``k`` window of ``codes``.

    Two windows get the same id iff their code sequences are equal.
    Rank doubling keeps every intermediate value below ``len(codes)``
    so the pairwise combinations never overflow int64 — unlike a direct
    polynomial encoding of the window contents.
    """
    _, ids = np.unique(codes, return_inverse=True)
    by_len = {1: ids}
    length = 1
    while length * 2 <= k:
        ids = by_len[length]
        upper = int(ids.max()) + 1
        combined = ids[: len(ids) - length] * upper + ids[length:]
        _, combined = np.unique(combined, return_inverse=True)
        length *= 2
        by_len[length] = combined
    result = by_len[length]
    offset = length
    remaining = k - length
    while remaining:
        piece = 1 << (remaining.bit_length() - 1)
        part = by_len[piece]
        upper = int(part.max()) + 1
        count = len(codes) - (offset + piece) + 1
        combined = result[:count] * upper + part[offset : offset + count]
        _, result = np.unique(combined, return_inverse=True)
        offset += piece
        remaining -= piece
    return result


class KBoundedPathProfiler(Profiler):
    """Sliding-window profiler over the last ``k`` branches.

    Parameters
    ----------
    k:
        Window length in branches.
    intraprocedural:
        When True (the Young–Smith definition) the window resets at
        procedure calls and returns, so general paths never span
        procedure boundaries.
    """

    name = "k-bounded"

    def __init__(self, k: int = 8, intraprocedural: bool = True):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.intraprocedural = intraprocedural
        self._window: deque[tuple[int, int]] = deque(maxlen=k)
        self._counters = CounterTable("k-paths")
        self._queue_ops = 0

    def observe_batch(self, batch: EventBatch) -> None:
        """Vectorized sliding windows over the batch's branch pairs.

        Window resets (halt, and call/return in intraprocedural mode)
        split the kept pairs into runs; every length-``k`` window fully
        inside one run — including windows straddling the carried-over
        deque from the previous batch — bumps its counter.  Each kept
        pair costs one queue op and each counted window one table
        update, as the per-branch queue of an instrumented binary.
        """
        n = len(batch)
        if n == 0:
            return
        src = batch.src
        dst = batch.dst
        kind = batch.kind
        reset = dst == HALT_DST
        if self.intraprocedural:
            reset |= (kind == CODE_CALL) | (kind == CODE_RETURN)
        kept = np.flatnonzero(~reset)
        self._queue_ops += int(kept.size)
        k = self.k

        # Pairs in append order, prefixed with the carried window (the
        # open run's last ≤k pairs); run ids distinguish reset spans —
        # the carry belongs to run 0, the run open when the batch began.
        carry = list(self._window)
        run_of_kept = np.cumsum(reset)[kept] if kept.size else kept
        pair_src = src[kept]
        pair_dst = dst[kept]
        run_id = run_of_kept
        if carry:
            pair_src = np.concatenate(
                ([pair[0] for pair in carry], pair_src)
            )
            pair_dst = np.concatenate(
                ([pair[1] for pair in carry], pair_dst)
            )
            run_id = np.concatenate((np.zeros(len(carry), np.int64), run_id))
        total = len(pair_src)

        if total >= k:
            ends = np.arange(k - 1, total)
            # Valid: the whole window sits in one run, and it ends at a
            # pair appended by THIS batch (carry-ending windows were
            # already counted).
            valid = run_id[ends] == run_id[ends - (k - 1)]
            valid &= ends >= len(carry)
            chosen = ends[valid] - (k - 1)
            if chosen.size:
                stride = int(pair_dst.max()) + 1
                win_id = _window_ranks(pair_src * stride + pair_dst, k)
                _, first, counts = np.unique(
                    win_id[chosen], return_index=True, return_counts=True
                )
                keys = []
                for start in chosen[first].tolist():
                    keys.append(
                        tuple(
                            zip(
                                pair_src[start : start + k].tolist(),
                                pair_dst[start : start + k].tolist(),
                            )
                        )
                    )
                self._counters.bump_many(keys, counts.tolist())

        # Rebuild the deque: the last ≤k pairs of the run still open at
        # batch end (empty if the batch ended on a reset).
        resets = np.flatnonzero(reset)
        if resets.size:
            tail = kept[kept > resets[-1]]
            tail_pairs = zip(src[tail][-k:].tolist(), dst[tail][-k:].tolist())
        else:
            tail_pairs = zip(
                pair_src[-k:].tolist(), pair_dst[-k:].tolist()
            )
        self._window = deque(tail_pairs, maxlen=k)

    def report(self) -> ProfileReport:
        return ProfileReport(
            scheme=self.name,
            frequencies={key: count for key, count in self._counters.items()},
            counter_space=self._counters.high_water,
            profiling_ops=self._queue_ops + self._counters.updates,
        )
