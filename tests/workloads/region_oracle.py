"""Regions built one at a time: the oracle for ``build_run``.

:func:`build_run` here builds each region of a run alone, the way the
generator did before it built whole runs: ``default_rng(seed)`` per
region, one uid allocation per loop level, and one :class:`Path`
object per synthetic path, interned into the table one at a time.
:class:`ReferenceFactory` stands in for
:class:`~repro.workloads.pathmodel.PathFactory`, so swapping both into
:mod:`repro.workloads.generator` generates a reference trace the
columnar ``build_run`` must equal byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.trace.path import Path, PathSignature, PathTable
from repro.workloads.pathmodel import zipf_probabilities
from repro.workloads.regions import LoopRegion, NestedRegion, RegionSpec

#: Address stride between consecutive synthetic blocks.
BLOCK_SPACING = 4


class ReferenceFactory:
    """Per-path construction: one ``Path`` object per synthetic path."""

    def __init__(self) -> None:
        self.table = PathTable()
        self._next_uid = 0

    def allocate_region(self, num_tail_blocks: int) -> int:
        """Reserve a head block plus its body blocks; return the head."""
        head_uid = self._next_uid
        self._next_uid += 1 + num_tail_blocks
        return head_uid

    def make_tail_path(
        self,
        head_uid: int,
        variant: int,
        num_blocks: int,
        instructions_per_block: int,
    ) -> int:
        cond_branches = max(num_blocks - 1, 1)
        bit_count = max(cond_branches, variant.bit_length(), 1)
        signature = PathSignature(
            start_address=head_uid * BLOCK_SPACING,
            history=variant,
            bit_count=bit_count,
            indirect_targets=(),
        )
        blocks = [head_uid]
        for offset in range(num_blocks - 1):
            blocks.append(
                head_uid + 1 + (variant + offset) % max(num_blocks * 2, 1)
            )
        path = Path(
            signature=signature,
            blocks=tuple(blocks),
            start_uid=head_uid,
            num_instructions=num_blocks * instructions_per_block,
            num_cond_branches=cond_branches,
            num_indirect_branches=0,
            ends_with_backward_branch=True,
        )
        return self.table.intern(path)

    def make_exit_path(
        self, head_uid: int, instructions_per_block: int
    ) -> int:
        signature = PathSignature(
            start_address=head_uid * BLOCK_SPACING,
            history=(1 << 62) - 1,
            bit_count=62,
            indirect_targets=(),
        )
        path = Path(
            signature=signature,
            blocks=(head_uid, head_uid + 1),
            start_uid=head_uid,
            num_instructions=2 * instructions_per_block,
            num_cond_branches=1,
            num_indirect_branches=0,
            ends_with_backward_branch=True,
        )
        return self.table.intern(path)


def build_region(spec: RegionSpec, factory: ReferenceFactory, seed: int):
    """One region of ``spec``, built alone from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    ipb = spec.instr_per_block
    if spec.kind == "nest":
        descend_ids = []
        for _ in range(spec.depth - 1):
            head = factory.allocate_region(8)
            descend_ids.append(factory.make_tail_path(head, 1, 3, ipb))
        inner_blocks = int(rng.integers(spec.blocks_min, spec.blocks_max + 1))
        head = factory.allocate_region(2 * inner_blocks)
        inner_tail_id = factory.make_tail_path(head, 1, inner_blocks, ipb)
        inner_exit_id = factory.make_exit_path(head, ipb)
        return NestedRegion(
            spec,
            rng,
            np.array(descend_ids, dtype=np.int64),
            inner_tail_id,
            inner_exit_id,
        )
    block_counts = rng.integers(
        spec.blocks_min, spec.blocks_max + 1, size=spec.num_tails
    )
    head = factory.allocate_region(2 * int(block_counts.max()))
    tail_ids = np.array(
        [
            factory.make_tail_path(head, variant, int(count), ipb)
            for variant, count in enumerate(block_counts)
        ],
        dtype=np.int64,
    )
    exit_id = factory.make_exit_path(head, ipb)
    tail_cdf = zipf_probabilities(spec.num_tails, spec.tail_skew).cumsum()
    tail_cdf /= tail_cdf[-1]
    return LoopRegion(spec, rng, tail_ids, exit_id, tail_cdf)


def build_run(spec: RegionSpec, factory: ReferenceFactory, seeds) -> list:
    """The regions of a run, each built alone."""
    return [build_region(spec, factory, seed) for seed in seeds]
