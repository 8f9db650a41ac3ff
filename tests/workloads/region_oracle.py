"""Regions built and visited one at a time: the generator's oracle.

:func:`build_run` here builds each region of a run alone:
``default_rng(seed)`` per region, its block counts from
``Generator.integers``, one uid allocation per loop level, and one
:class:`Path` object per synthetic path, interned into the table one at
a time.  Its regions emit each visit's path ids as an array the moment
they are visited, and :func:`generate` concatenates those arrays in
schedule order.  Every trace :class:`~repro.workloads.WorkloadGenerator`
makes, which records visits and renders them in bulk, must equal
:func:`generate`'s byte for byte.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import WorkloadError
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace
from repro.workloads.generator import _CHOICE_BATCH, Phase, WorkloadConfig
from repro.workloads.pathmodel import zipf_probabilities
from repro.workloads.regions import RegionSpec

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


class LoopRegion:
    """A single loop with ``J`` tail variants, emitting per visit.

    ``tail_cdf`` is the normalized cumulative tail distribution.
    """

    def __init__(
        self,
        spec: RegionSpec,
        rng: np.random.Generator,
        tail_ids: np.ndarray,
        exit_id: int,
        tail_cdf: np.ndarray,
    ):
        self.spec = spec
        self._rng = rng
        self.tail_ids = tail_ids
        self.exit_id = exit_id
        self._tail_cdf = tail_cdf
        self._visited = False

    def emit(self) -> np.ndarray:
        """Path ids for one visit: iterations then the exit path.

        The first visit additionally walks every tail once (the
        coverage sweep).
        """
        spec = self.spec
        iterations = 1 + self._rng.poisson(max(spec.iters_mean - 1.0, 0.0))
        draws = self._rng.random(int(iterations))
        sampled = self.tail_ids[
            self._tail_cdf.searchsorted(draws, side="right")
        ]
        parts = [sampled]
        if not self._visited:
            self._visited = True
            parts.insert(0, self.tail_ids)
        parts.append(np.array([self.exit_id], dtype=np.int64))
        return np.concatenate(parts)


class NestedRegion:
    """``D`` perfectly nested loops, emitting per visit."""

    def __init__(
        self,
        spec: RegionSpec,
        rng: np.random.Generator,
        descend_ids: np.ndarray,
        inner_tail_id: int,
        inner_exit_id: int,
    ):
        self.spec = spec
        self._rng = rng
        self.descend_ids = descend_ids
        self.inner_tail_id = inner_tail_id
        self.inner_exit_id = inner_exit_id

    def emit(self) -> np.ndarray:
        """Path ids for one visit: per outer iteration ``descend ×
        (D−1), inner × n, exit``, one inner trip count drawn each."""
        spec = self.spec
        outer = 1 + self._rng.poisson(max(spec.outer_iters_mean - 1.0, 0.0))
        chunks: list[np.ndarray] = []
        for _ in range(int(outer)):
            inner = 1 + self._rng.poisson(max(spec.iters_mean - 1.0, 0.0))
            chunks.append(self.descend_ids)
            chunks.append(
                np.full(int(inner), self.inner_tail_id, dtype=np.int64)
            )
            chunks.append(
                np.array([self.inner_exit_id], dtype=np.int64)
            )
        return np.concatenate(chunks)


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


def generate(config: WorkloadConfig) -> PathTrace:
    """The workload's trace, one ``emit`` per visit in schedule order."""
    rng = np.random.default_rng(config.seed)
    factory = ReferenceFactory()
    regions: list = []
    for spec, run in itertools.groupby(config.regions):
        first = config.seed * 1_000_003 + len(regions)
        count = sum(1 for _ in run)
        regions.extend(build_run(spec, factory, range(first, first + count)))
    chunks: list[np.ndarray] = []
    emitted = 0
    if config.coverage_pass:
        coverage_order = sorted(
            range(len(regions)), key=lambda index: -config.regions[index].weight
        )
        for index in coverage_order:
            chunk = regions[index].emit()
            chunks.append(chunk)
            emitted += len(chunk)
    phases = config.phases or [Phase(fraction=1.0)]
    base = np.array([spec.weight for spec in config.regions], dtype=np.float64)
    for phase in phases:
        budget = int(round(phase.fraction * config.target_flow))
        goal = min(emitted + budget, config.target_flow)
        emitted = _run_phase(
            rng, regions, _weights(base, phase), chunks, emitted, goal
        )
    emitted = _run_phase(
        rng,
        regions,
        _weights(base, phases[-1]),
        chunks,
        emitted,
        config.target_flow,
    )
    ids = np.concatenate(chunks)[: config.target_flow]
    return PathTrace(factory.table, ids, name=config.name)


def _weights(base: np.ndarray, phase: Phase) -> np.ndarray:
    if phase.weights is None:
        weights = base.copy()
    else:
        weights = np.zeros(len(base), dtype=np.float64)
        for index, weight in phase.weights.items():
            weights[index] = weight
    total = weights.sum()
    if total <= 0:
        raise WorkloadError("phase weights sum to zero")
    return weights / total


def _run_phase(rng, regions, weights, chunks, emitted, goal) -> int:
    indices = np.array([], dtype=np.int64)
    cursor = 0
    while emitted < goal:
        if cursor >= len(indices):
            indices = rng.choice(len(regions), size=_CHOICE_BATCH, p=weights)
            cursor = 0
        chunk = regions[indices[cursor]].emit()
        cursor += 1
        chunks.append(chunk)
        emitted += len(chunk)
    return emitted
