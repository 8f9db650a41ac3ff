"""Synthetic path construction for workload surrogates.

The abstract experiments of the paper depend only on the *path sequence
statistics* of a run — how many distinct paths exist, how they share
heads, how skewed their frequencies are — not on the instructions behind
them.  The :class:`PathFactory` appends families of paths with
consistent geometry (unique block uids and addresses per region,
plausible per-path block/instruction counts, distinct bit-tracing
signatures) to a :class:`repro.trace.PathTable`, as columns, so that
every downstream consumer (predictors, metrics, overhead models, the
Dynamo simulator) sees exactly what it would see from an extracted
trace.

Block-uid and address ranges are allocated per region so that heads are
genuine "targets of backward taken branches" in the address sense: every
synthetic path ends with a backward taken branch to the head of the next
executing path, which is how the loop-structured programs the paper
studies behave.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import WorkloadError
from repro.trace.path import PathTable

#: Address stride between consecutive synthetic blocks: a block's
#: address is its uid times the stride.
_BLOCK_SPACING = 4


class _Rows(NamedTuple):
    """Staged paths not in the table yet, one entry per row."""

    head_uid: np.ndarray
    variant: np.ndarray
    num_blocks: np.ndarray
    instructions_per_block: np.ndarray
    exit_path: np.ndarray


class PathFactory:
    """Allocates uids/addresses and builds a table of synthetic paths.

    Regions stage their paths while they are built and get the ids at
    once, but the factory appends the paths to :attr:`table` only when
    the table is next read, all of them in one bulk call: a surrogate
    has thousands of regions of a few paths each, and one vectorized
    pass over all of them costs less than one per region.
    """

    def __init__(self) -> None:
        self._table = PathTable()
        self._next_uid = 0
        self._staged: list[_Rows] = []
        self._staged_rows = 0

    @property
    def table(self) -> PathTable:
        """The table, holding every path made so far."""
        if self._staged:
            self._append_staged()
        return self._table

    def allocate(self, spans: np.ndarray) -> np.ndarray:
        """Reserve consecutive uid ranges of ``spans`` blocks each.

        Returns each range's first uid, its head block; the range's
        other blocks are the region's body blocks.
        """
        ends = self._next_uid + np.cumsum(spans, dtype=np.int64)
        self._next_uid = int(ends[-1])
        return ends - spans

    def stage(
        self,
        head_uid,
        variant,
        num_blocks,
        instructions_per_block: int,
        exit_path,
    ) -> np.ndarray:
        """Stage one path per element of the broadcast arguments.

        Returns the paths' table ids, in the broadcast shape; the rows
        are staged in C order.  A tail row of ``num_blocks`` blocks
        runs from its head through body blocks chosen by its variant.
        The variant doubles as the signature's branch history, so
        distinct variants have distinct signatures by construction.  An
        exit row is the region's loop-exit/transition path: it starts at
        the head (the loop test falls through) and runs to the next
        backward branch — in the region chain that is the following
        region's latch, so it still ends backward.  Its signature is
        distinguished from tail variants by an all-ones history one bit
        longer than any tail uses.
        """
        columns = np.broadcast_arrays(
            np.asarray(head_uid, dtype=np.int64),
            np.asarray(variant, dtype=np.int64),
            np.asarray(num_blocks, dtype=np.int64),
            np.asarray(instructions_per_block, dtype=np.int64),
            np.asarray(exit_path, dtype=bool),
        )
        shape = columns[0].shape
        self._staged.append(_Rows(*(column.ravel() for column in columns)))
        first = len(self._table) + self._staged_rows
        rows = columns[0].size
        self._staged_rows += rows
        return np.arange(first, first + rows, dtype=np.int64).reshape(shape)

    def _append_staged(self) -> None:
        """Build every staged row and append them in one call."""
        staged, self._staged, self._staged_rows = self._staged, [], 0
        head_uid, variants, num_blocks, instructions, exit_path = (
            np.concatenate(column) for column in zip(*staged)
        )
        if (num_blocks < 1).any():
            raise WorkloadError("a path needs at least one block")
        cond_branches = np.maximum(num_blocks - 1, 1)
        # frexp's exponent is int.bit_length() for integers below 2**53.
        tail_bits = np.maximum(cond_branches, np.frexp(variants)[1])
        # Block 0 of row j is the head; block k >= 1 is body block
        # (variants[j] + k - 1) mod 2·num_blocks[j], counted from the
        # block after the head.
        row_start = np.cumsum(num_blocks) - num_blocks
        row = np.repeat(np.arange(len(num_blocks)), num_blocks)
        k = np.arange(len(row)) - row_start[row]
        blocks = head_uid[row] + 1 + (variants[row] + k - 1) % (
            2 * num_blocks[row]
        )
        blocks[row_start] = head_uid
        self._table.append_rows(
            start_address=head_uid * _BLOCK_SPACING,
            history=np.where(exit_path, (1 << 62) - 1, variants),
            bit_count=np.where(exit_path, 62, tail_bits),
            block_counts=num_blocks,
            blocks=blocks,
            num_instructions=num_blocks * instructions,
            num_cond_branches=cond_branches,
            ends_backward=True,
        )


def zipf_probabilities(count: int, skew: float) -> np.ndarray:
    """Zipf-like tail distribution: ``p_j ∝ (j+1)^−skew``.

    ``skew=0`` is uniform; larger skews concentrate flow on the first
    tails (dominant-path loops).
    """
    if count < 1:
        raise WorkloadError("count must be positive")
    if skew < 0:
        raise WorkloadError("skew must be non-negative")
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks**-skew
    return weights / weights.sum()
