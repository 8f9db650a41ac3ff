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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import WorkloadError
from repro.trace.path import PathTable

#: Address stride between consecutive synthetic blocks.
_BLOCK_SPACING = 4


@dataclass(frozen=True)
class RegionGeometry:
    """Uid/address ranges reserved for one region's blocks."""

    head_uid: int
    head_address: int
    first_tail_uid: int
    first_tail_address: int


class _Family(NamedTuple):
    """Paths a region asked for that are not in the table yet."""

    geometry: RegionGeometry
    variants: np.ndarray
    num_blocks: np.ndarray
    instructions_per_block: int
    exit_path: bool


class PathFactory:
    """Allocates uids/addresses and builds a table of synthetic paths.

    Regions ask for their paths while they are built and get the ids at
    once, but the factory appends the paths to :attr:`table` only when
    the table is next read, all of them in one bulk call: a surrogate
    has thousands of regions of a few paths each, and one vectorized
    pass over all of them costs less than one per region.
    """

    def __init__(self) -> None:
        self._table = PathTable()
        self._next_uid = 0
        self._next_address = 0
        self._staged: list[_Family] = []
        self._staged_rows = 0

    @property
    def table(self) -> PathTable:
        """The table, holding every path made so far."""
        if self._staged:
            self._append_staged()
        return self._table

    def allocate_region(self, num_tail_blocks: int) -> RegionGeometry:
        """Reserve a head block plus ``num_tail_blocks`` body blocks."""
        if num_tail_blocks < 0:
            raise WorkloadError("num_tail_blocks must be non-negative")
        geometry = RegionGeometry(
            head_uid=self._next_uid,
            head_address=self._next_address,
            first_tail_uid=self._next_uid + 1,
            first_tail_address=self._next_address + _BLOCK_SPACING,
        )
        self._next_uid += 1 + num_tail_blocks
        self._next_address += (1 + num_tail_blocks) * _BLOCK_SPACING
        return geometry

    def make_tail_paths(
        self,
        geometry: RegionGeometry,
        variants: np.ndarray,
        num_blocks: np.ndarray,
        instructions_per_block: int = 3,
    ) -> np.ndarray:
        """Make tail variants of a region's loop; return their table ids.

        Variant ``variants[j]`` has ``num_blocks[j]`` blocks: the head,
        then body blocks chosen by the variant.  The variant doubles as
        the signature's branch history, so distinct variants have
        distinct signatures by construction.
        """
        return self._stage(
            geometry, variants, num_blocks, instructions_per_block, False
        )

    def make_tail_path(
        self,
        geometry: RegionGeometry,
        variant: int,
        num_blocks: int,
        instructions_per_block: int = 3,
    ) -> int:
        """Make one tail variant (see :meth:`make_tail_paths`)."""
        ids = self._stage(
            geometry, [variant], [num_blocks], instructions_per_block, False
        )
        return int(ids[0])

    def make_exit_path(
        self,
        geometry: RegionGeometry,
        instructions_per_block: int = 3,
    ) -> int:
        """Make the region's loop-exit/transition path.

        The exit path starts at the region head (the loop test falls
        through) and runs to the next backward branch — in the region
        chain that is the following region's latch, so it still ends
        backward.  Its signature is distinguished from tail variants by
        an all-ones history one bit longer than any tail uses.
        """
        # Its blocks and sizes are those of a two-block variant-0 tail.
        ids = self._stage(geometry, [0], [2], instructions_per_block, True)
        return int(ids[0])

    def _stage(
        self,
        geometry: RegionGeometry,
        variants,
        num_blocks,
        instructions_per_block: int,
        exit_path: bool,
    ) -> np.ndarray:
        num_blocks = np.asarray(num_blocks, dtype=np.int64)
        first = len(self._table) + self._staged_rows
        self._staged.append(
            _Family(
                geometry,
                np.asarray(variants, dtype=np.int64),
                num_blocks,
                instructions_per_block,
                exit_path,
            )
        )
        self._staged_rows += len(num_blocks)
        return np.arange(first, first + len(num_blocks), dtype=np.int64)

    def _append_staged(self) -> None:
        """Build every staged path family and append them in one call."""
        families, self._staged, self._staged_rows = self._staged, [], 0
        num_blocks = np.concatenate([f.num_blocks for f in families])
        if (num_blocks < 1).any():
            raise WorkloadError("a path needs at least one block")
        sizes = [len(f.num_blocks) for f in families]

        def per_row(values) -> np.ndarray:
            return np.repeat(np.array(values, dtype=np.int64), sizes)

        head_uid = per_row([f.geometry.head_uid for f in families])
        first_tail_uid = per_row([f.geometry.first_tail_uid for f in families])
        head_address = per_row([f.geometry.head_address for f in families])
        instructions = per_row([f.instructions_per_block for f in families])
        exit_path = per_row([f.exit_path for f in families]).astype(bool)
        variants = np.concatenate([f.variants for f in families])

        cond_branches = np.maximum(num_blocks - 1, 1)
        # frexp's exponent is int.bit_length() for integers below 2**53.
        tail_bits = np.maximum(cond_branches, np.frexp(variants)[1])
        # Block 0 of row j is the head; block k >= 1 is body block
        # (variants[j] + k - 1) mod 2·num_blocks[j].
        row_start = np.cumsum(num_blocks) - num_blocks
        row = np.repeat(np.arange(len(num_blocks)), num_blocks)
        k = np.arange(len(row)) - row_start[row]
        blocks = first_tail_uid[row] + (variants[row] + k - 1) % (
            2 * num_blocks[row]
        )
        blocks[row_start] = head_uid
        self._table.append_rows(
            start_address=head_address,
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
