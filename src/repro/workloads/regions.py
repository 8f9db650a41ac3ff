"""Region templates: the building blocks of workload surrogates.

A *region* is a loop-structured piece of program that owns one or more
path heads and a family of paths through them.  Three templates cover the
head/path ratios observed across the paper's benchmark suite (Table 2):

* :class:`LoopRegion` — a single loop with ``J`` tail variants: 1 head,
  ``J + 1`` dynamic paths (the tails plus the loop-exit path).  With
  large ``J`` and low skew this is the "path mill" that gives gcc, go
  and ijpeg their huge path spaces; with ``J = 1`` it is the plain inner
  loop that dominates li or deltablue.
* :class:`NestedRegion` — ``D`` perfectly nested loops: ``D`` heads,
  ``D + 1`` dynamic paths (one descend path per outer level, the inner
  iteration path, the inner exit path).  Nests raise the head/path ratio
  above 1/2, which compress- and vortex-like programs need.

Every region draws its per-visit iteration counts and tail choices from
its own seeded RNG, so workloads are reproducible and regions are
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.pathmodel import PathFactory, zipf_probabilities


@dataclass(frozen=True)
class RegionSpec:
    """Declarative description of one region.

    Attributes
    ----------
    kind:
        ``"loop"`` or ``"nest"``.
    num_tails:
        Number of tail variants of the (innermost) loop.
    tail_skew:
        Zipf skew of the tail distribution; 0 is uniform.
    iters_mean:
        Mean iterations of the (innermost) loop per visit.
    weight:
        Relative visit weight in the workload schedule.
    depth:
        Nest depth (``"nest"`` only; number of heads).
    outer_iters_mean:
        Mean outer-loop iterations per visit (``"nest"`` only).
    blocks_min / blocks_max:
        Range of per-path block counts.
    instr_per_block:
        Instructions per block — workloads with long straight-line
        blocks (perl/deltablue-like) amortize per-path profiling costs
        better than tight-loop workloads (compress-like).
    """

    kind: str = "loop"
    num_tails: int = 1
    tail_skew: float = 1.0
    iters_mean: float = 20.0
    weight: float = 1.0
    depth: int = 3
    outer_iters_mean: float = 4.0
    blocks_min: int = 3
    blocks_max: int = 8
    instr_per_block: int = 3

    def __post_init__(self) -> None:
        if self.kind not in ("loop", "nest"):
            raise WorkloadError(f"unknown region kind {self.kind!r}")
        if self.num_tails < 1:
            raise WorkloadError("num_tails must be at least 1")
        if self.kind == "nest" and self.depth < 2:
            raise WorkloadError("nest depth must be at least 2")
        if self.iters_mean < 1:
            raise WorkloadError("iters_mean must be at least 1")
        if self.weight < 0:
            raise WorkloadError("weight must be non-negative")

    @property
    def num_heads(self) -> int:
        """Path heads this region contributes."""
        return self.depth if self.kind == "nest" else 1

    @property
    def num_paths(self) -> int:
        """Dynamic paths this region contributes once fully covered."""
        if self.kind == "nest":
            return self.depth + 1
        return self.num_tails + 1


class LoopRegion:
    """Runtime emitter for a single loop with ``J`` tail variants."""

    def __init__(self, spec: RegionSpec, factory: PathFactory, seed: int):
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        block_counts = self._rng.integers(
            spec.blocks_min, spec.blocks_max + 1, size=spec.num_tails
        )
        geometry = factory.allocate_region(
            num_tail_blocks=2 * int(block_counts.max())
        )
        self.head_uid = geometry.head_uid
        self.tail_ids = factory.make_tail_paths(
            geometry,
            variants=np.arange(spec.num_tails),
            num_blocks=block_counts,
            instructions_per_block=spec.instr_per_block,
        )
        self.exit_id = factory.make_exit_path(
            geometry, instructions_per_block=spec.instr_per_block
        )
        self.tail_probs = zipf_probabilities(spec.num_tails, spec.tail_skew)
        # Generator.choice(p=...) draws by searching this normalized CDF
        # with uniform samples; computing it once per region keeps the
        # random stream and skips choice's per-call validation of p.
        self._tail_cdf = self.tail_probs.cumsum()
        self._tail_cdf /= self._tail_cdf[-1]
        self._visited = False

    @property
    def head_uids(self) -> list[int]:
        """The heads this region owns (one for a plain loop)."""
        return [self.head_uid]

    def emit(self) -> np.ndarray:
        """Path ids for one visit: iterations then the exit path.

        The first visit additionally walks every tail once (a coverage
        sweep), modelling the warm-up pass real loops make over their
        input-dependent variants and pinning the region's dynamic path
        count to its design value.
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
            parts.insert(0, self.tail_ids.copy())
        parts.append(np.array([self.exit_id], dtype=np.int64))
        return np.concatenate(parts)


class NestedRegion:
    """Runtime emitter for ``D`` perfectly nested loops."""

    def __init__(self, spec: RegionSpec, factory: PathFactory, seed: int):
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        depth = spec.depth

        self._descend_ids: list[int] = []
        self._head_uids: list[int] = []
        for level in range(depth - 1):
            geometry = factory.allocate_region(num_tail_blocks=8)
            self._head_uids.append(geometry.head_uid)
            # The descend path: this level's head down into the next
            # level's loop, ending at the inner latch (backward).
            self._descend_ids.append(
                factory.make_tail_path(
                    geometry,
                    variant=1,
                    num_blocks=3,
                    instructions_per_block=spec.instr_per_block,
                )
            )

        inner_blocks = int(
            self._rng.integers(spec.blocks_min, spec.blocks_max + 1)
        )
        geometry = factory.allocate_region(num_tail_blocks=2 * inner_blocks)
        self._head_uids.append(geometry.head_uid)
        self.inner_tail_id = factory.make_tail_path(
            geometry,
            variant=1,
            num_blocks=inner_blocks,
            instructions_per_block=spec.instr_per_block,
        )
        self.inner_exit_id = factory.make_exit_path(
            geometry, instructions_per_block=spec.instr_per_block
        )
        self._visited = False

    @property
    def head_uids(self) -> list[int]:
        """All nest heads, outermost first."""
        return list(self._head_uids)

    def emit(self) -> np.ndarray:
        """Path ids for one visit.

        Each outer iteration descends through every level, runs the inner
        loop, and exits back up: ``descend × (D−1), inner × n, exit``.
        """
        spec = self.spec
        outer = 1 + self._rng.poisson(max(spec.outer_iters_mean - 1.0, 0.0))
        chunks: list[np.ndarray] = []
        descend = np.array(self._descend_ids, dtype=np.int64)
        for _ in range(int(outer)):
            inner = 1 + self._rng.poisson(max(spec.iters_mean - 1.0, 0.0))
            chunks.append(descend)
            chunks.append(
                np.full(int(inner), self.inner_tail_id, dtype=np.int64)
            )
            chunks.append(
                np.array([self.inner_exit_id], dtype=np.int64)
            )
        self._visited = True
        return np.concatenate(chunks)


def build_region(spec: RegionSpec, factory: PathFactory, seed: int):
    """Instantiate the runtime emitter for ``spec``."""
    if spec.kind == "nest":
        return NestedRegion(spec, factory, seed)
    return LoopRegion(spec, factory, seed)
