"""Materialized path traces.

:class:`PathTrace` is the central exchange format of the library: a dense
sequence of path ids plus the interning table behind them.  Everything
downstream — profilers, predictors, metrics, the Dynamo simulator — runs
over path traces, whether they came from a real execution (CFG walker or
ISA machine, through the extractor) or straight from a workload's
stochastic path model.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.cfg.program import Program
from repro.errors import TraceError
from repro.trace.batch import EventBatch
from repro.trace.extractor import PathExtractor
from repro.trace.path import PathTable


class PathTrace:
    """A recorded execution as a sequence of path occurrences.

    Attributes
    ----------
    table:
        The :class:`PathTable` mapping ids to paths.
    path_ids:
        ``int64`` array, one entry per path occurrence, in execution
        order.  ``len(path_ids)`` is the total *flow* of the trace (the
        paper's ``Flow``).
    name:
        Optional label (the workload/benchmark name) used in reports.
    """

    def __init__(
        self,
        table: PathTable,
        path_ids: np.ndarray | Iterable[int],
        name: str = "trace",
    ):
        self.table = table
        self.path_ids = np.asarray(path_ids, dtype=np.int64)
        self.name = name
        if self.path_ids.ndim != 1:
            raise TraceError("path_ids must be one-dimensional")
        if len(self.path_ids) and (
            self.path_ids.min() < 0 or self.path_ids.max() >= len(table)
        ):
            raise TraceError("path_ids reference paths outside the table")
        # The occurrence array is content: the engine's trace_digest is
        # memoized per trace object, so mutating it in place would
        # silently re-serve a stale digest (and poison the sweep cache).
        # Everything downstream only reads the array.
        self.path_ids.flags.writeable = False
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def flow(self) -> int:
        """Total number of path executions (the paper's ``Flow``)."""
        return int(len(self.path_ids))

    @property
    def num_paths(self) -> int:
        """Number of distinct paths registered in the table."""
        return len(self.table)

    def freqs(self) -> np.ndarray:
        """Per-path execution frequency ``freq(p)``, indexed by path id."""
        return self._cached(
            "freqs",
            lambda: np.bincount(self.path_ids, minlength=len(self.table)),
        )

    # ------------------------------------------------------------------
    # Per-path static attribute arrays (indexed by path id, read-only)
    # ------------------------------------------------------------------
    def start_uids(self) -> np.ndarray:
        """Head block uid per path id."""
        return self.table.static_columns()["start_uids"]

    def instructions_per_path(self) -> np.ndarray:
        """Instruction count per path id (Dynamo cost model input)."""
        return self.table.static_columns()["instr"]

    def cond_branches_per_path(self) -> np.ndarray:
        """Conditional branch count per path id (bit-tracing cost input)."""
        return self.table.static_columns()["cond"]

    def indirect_branches_per_path(self) -> np.ndarray:
        """Indirect branch count per path id."""
        return self.table.static_columns()["indirect"]

    def blocks_per_path(self) -> np.ndarray:
        """Block count per path id."""
        return self.table.static_columns()["blocks"]

    def ends_backward_per_path(self) -> np.ndarray:
        """Whether each path id ends with a backward taken branch."""
        return self.table.static_columns()["ends_backward"]

    # ------------------------------------------------------------------
    # Derived sequences (one entry per occurrence)
    # ------------------------------------------------------------------
    def head_sequence(self) -> np.ndarray:
        """Head block uid of every occurrence, in execution order."""
        return self.start_uids()[self.path_ids]

    def backward_arrival_mask(self) -> np.ndarray:
        """Whether each occurrence was *entered via* a backward taken branch.

        Occurrence ``i`` arrives via a backward branch exactly when
        occurrence ``i-1``'s path ended with one.  The first occurrence is
        reached from the program entry, not a branch.  This is the precise
        condition under which Dynamo's NET implementation bumps the head
        counter.
        """

        def build() -> np.ndarray:
            ends = self.ends_backward_per_path()[self.path_ids]
            mask = np.empty(len(self.path_ids), dtype=bool)
            if len(mask):
                mask[0] = False
                mask[1:] = ends[:-1]
            return mask

        return self._cached("backward_arrival", build)

    def dynamic_head_uids(self) -> set[int]:
        """Distinct targets of backward taken branches observed in the trace.

        This is the paper's "#Unique Path Heads" (Table 2): the number of
        counters the NET scheme allocates during the run.
        """
        heads = self.head_sequence()[self.backward_arrival_mask()]
        return set(int(uid) for uid in np.unique(heads))

    def occurrence_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Occurrence indices grouped by path id (cached).

        Returns ``(order, starts)`` exactly as
        :func:`repro.prediction.base.occurrence_index_arrays` does:
        ``order`` is a stable argsort of :attr:`path_ids` and
        ``order[starts[i]:starts[i+1]]`` lists path ``i``'s occurrence
        indices in execution order.  The grouping is a pure function of
        the trace, so it is computed once and shared by every predictor
        replaying this trace — the sweep engine's per-cell argsort used
        to be one of its hottest redundant computations.
        """
        index = self._cache.get("occurrence_index")
        if index is None:
            order = np.argsort(self.path_ids, kind="stable")
            starts = np.searchsorted(
                self.path_ids[order],
                np.arange(len(self.table) + 1),
                side="left",
            )
            # One store of the pair: a concurrent reader sees both
            # arrays or neither.
            index = self._cache["occurrence_index"] = (order, starts)
        return index

    def head_arrival_ranks(
        self, count_backward_arrivals_only: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counted arrivals per head, by occurrence and in total (cached).

        Returns ``(rank, arrivals)``.  ``rank[i]`` (``int32``) is how
        many counted arrivals occurrence ``i``'s head has had at or
        before index ``i``; ``arrivals`` holds the total counted
        arrivals of every head counted at least once (its length is
        NET's counter space).  An arrival counts when it came via a
        backward taken branch (:meth:`backward_arrival_mask`), or on
        every path start when ``count_backward_arrivals_only`` is
        False.  NET's head counters only ever increase, so every
        prediction delay is a threshold on ``rank`` and all of them
        share this one pass.
        """
        key = (
            "arrival_ranks_backward"
            if count_backward_arrivals_only
            else "arrival_ranks_all"
        )
        ranks = self._cache.get(key)
        if ranks is None:
            if count_backward_arrivals_only:
                counted = self.backward_arrival_mask()
            else:
                counted = np.ones(len(self.path_ids), dtype=bool)
            uids, head_of_path = np.unique(
                self.start_uids(), return_inverse=True
            )
            num_heads = len(uids)
            # The narrowest dtype lets the stable sort use radix sort.
            heads = head_of_path.astype(np.min_scalar_type(num_heads))[
                self.path_ids
            ]
            by_head = np.argsort(heads, kind="stable")
            sorted_heads = heads[by_head]
            # running[k]: counted arrivals among the first k occurrences
            # in head-grouped order; before[h]: those of heads below h.
            running = np.zeros(len(heads) + 1, dtype=np.int32)
            np.cumsum(counted[by_head], dtype=np.int32, out=running[1:])
            before = running[
                np.searchsorted(sorted_heads, np.arange(num_heads + 1))
            ]
            rank = np.empty(len(heads), dtype=np.int32)
            rank[by_head] = running[1:] - before[sorted_heads]
            totals = np.diff(before)
            # One store of the pair, as in occurrence_index.
            ranks = self._cache[key] = (rank, totals[totals > 0])
        return ranks

    def static_columns(self) -> dict[str, np.ndarray]:
        """All per-path static attribute arrays, keyed by
        :data:`~repro.trace.path.STATIC_COLUMN_KEYS`.

        Together with :attr:`path_ids` and :attr:`name` these columns
        are everything the replay pipeline reads.
        """
        return dict(self.table.static_columns())

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "PathTrace":
        """A sub-trace sharing the table (used by phase experiments)."""
        return PathTrace(
            self.table, self.path_ids[start:stop], name=f"{self.name}[{start}:{stop}]"
        )

    def _cached(self, key: str, builder) -> np.ndarray:
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def __len__(self) -> int:
        return self.flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathTrace({self.name!r}, flow={self.flow}, "
            f"paths={self.num_paths})"
        )


def record_path_trace(
    program: Program,
    events: EventBatch | Iterable[EventBatch],
    name: str = "trace",
    table: PathTable | None = None,
    max_blocks: int | None = 256,
) -> PathTrace:
    """Run the extractor over ``events`` and materialize a path trace.

    ``events`` is one columnar :class:`~repro.trace.batch.EventBatch`
    or an iterable of batches forming one stream (e.g. the output of
    ``CFGWalker.walk_batched``); any split of the same stream records
    the same trace.
    """
    extractor = PathExtractor(program, table=table, max_blocks=max_blocks)
    ids = extractor.extract_batch_ids(events)
    return PathTrace(extractor.table, ids, name=name)
