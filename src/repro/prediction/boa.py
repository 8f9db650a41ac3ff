"""Boa-style branch-profile based path construction (paper §7, related work).

The Boa binary translator selects hot paths differently from NET: it
profiles *every branch* during interpretation and, once a hot group entry
is found, constructs the path by repeatedly following the statistically
most likely successor.  The paper points out two weaknesses that this
implementation makes measurable:

* every branch must be profiled (high overhead, large counter space);
* composing a path from isolated branch frequencies ignores branch
  correlation, so the constructed path may never execute as a whole — in
  which case the prediction captures nothing.

The predictor uses the same hot-head trigger as NET so the two schemes
differ only in how the tail is chosen: speculative (next executing) vs
constructed (most likely successors).
"""

from __future__ import annotations

import numpy as np

from repro.prediction.base import (
    OnlinePredictor,
    PredictionOutcome,
    occurrence_index_arrays,
)
from repro.trace.recorder import PathTrace


class BoaPredictor(OnlinePredictor):
    """Most-likely-successor path construction on hot heads.

    Parameters
    ----------
    delay:
        Prediction delay τ for the head counters, as in NET.

    Constructed paths are capped at 256 blocks, the extractor's default.
    """

    name = "boa"

    def run(self, trace: PathTrace) -> PredictionOutcome:
        tau = self.delay
        table = trace.table
        path_ids = trace.path_ids
        arrival = trace.backward_arrival_mask()

        # Index: block sequence -> path id, for matching constructed paths.
        sequence_index: dict[tuple[int, ...], int] = {}
        for pid in range(len(table)):
            sequence_index.setdefault(table.path(pid).blocks, pid)

        order, starts = occurrence_index_arrays(path_ids, trace.num_paths)

        # successor frequency map: src block -> {dst block: count}
        edge_counts: dict[int, dict[int, int]] = {}
        end_counts: dict[int, int] = {}
        head_counters: dict[int, int] = {}
        retired: set[int] = set()

        predicted: list[int] = []
        times: list[int] = []
        captured: list[int] = []
        constructed_misses = 0
        profiling_ops = 0

        start_uids = trace.start_uids()
        for index in range(len(path_ids)):
            pid = int(path_ids[index])
            path = table.path(pid)

            # Branch profiling: every block-to-block transition is counted.
            blocks = path.blocks
            previous = blocks[0]
            for block in blocks[1:]:
                successors = edge_counts.setdefault(previous, {})
                successors[block] = successors.get(block, 0) + 1
                previous = block
            end_counts[previous] = end_counts.get(previous, 0) + 1
            profiling_ops += len(blocks)

            head = int(start_uids[pid])
            if head in retired or not arrival[index]:
                continue
            count = head_counters.get(head, 0) + 1
            head_counters[head] = count
            if count <= tau:
                continue

            retired.add(head)
            constructed = self._construct(head, edge_counts, end_counts)
            match = sequence_index.get(constructed)
            if match is None:
                constructed_misses += 1
                continue
            occurrences = order[starts[match] : starts[match + 1]]
            cut = np.searchsorted(occurrences, index, side="left")
            remaining = int(len(occurrences) - cut)
            predicted.append(match)
            times.append(index)
            captured.append(remaining)

        self.last_constructed_misses = constructed_misses

        return PredictionOutcome(
            scheme=self.name,
            delay=tau,
            predicted_ids=np.asarray(predicted, dtype=np.int64),
            prediction_times=np.asarray(times, dtype=np.int64),
            captured=np.asarray(captured, dtype=np.int64),
            counter_space=sum(len(s) for s in edge_counts.values())
            + len(head_counters),
            profiling_ops=profiling_ops,
        )

    def _construct(
        self,
        head: int,
        edge_counts: dict[int, dict[int, int]],
        end_counts: dict[int, int],
    ) -> tuple[int, ...]:
        """Follow most-likely successors from ``head``.

        At each block the observed continuations compete: each successor
        block by its edge count, and "the path ends here" by the block's
        end count.  Construction stops when ending wins, when a block
        repeats (the constructed path would loop), or at the length cap.
        """
        sequence = [head]
        seen = {head}
        while len(sequence) < 256:
            current = sequence[-1]
            best_succ = None
            best_count = end_counts.get(current, 0)
            for dst, count in edge_counts.get(current, {}).items():
                if count > best_count and dst not in seen:
                    best_succ = dst
                    best_count = count
            if best_succ is None:
                break
            sequence.append(best_succ)
            seen.add(best_succ)
        return tuple(sequence)
