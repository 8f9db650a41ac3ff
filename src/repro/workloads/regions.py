"""Region templates: the building blocks of workload surrogates.

A *region* is a loop-structured piece of program that owns one or more
path heads and a family of paths through them.  Two templates cover the
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
independent.  Workloads repeat one spec over runs of hundreds or
thousands of regions, so :func:`build_run` builds a whole run at once:
it seeds every region's generator in one vectorized pass
(:func:`seed_states`) and stages the run's paths as one block of rows;
only the block-count draw comes from each region's own stream.
"""

from __future__ import annotations

import functools
import operator
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
    """Runtime emitter for a single loop with ``J`` tail variants.

    ``tail_cdf`` is the normalized cumulative tail distribution, which
    the regions of one run share.
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

        The first visit additionally walks every tail once (a coverage
        sweep), modelling the warm-up pass real loops make over their
        input-dependent variants and pinning the region's dynamic path
        count to its design value.
        """
        spec = self.spec
        iterations = 1 + self._rng.poisson(max(spec.iters_mean - 1.0, 0.0))
        draws = self._rng.random(int(iterations))
        # Generator.choice(p=...) draws by searching the normalized CDF
        # with uniform samples; searching it directly keeps the random
        # stream and skips choice's per-call validation of p.
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
    """Runtime emitter for ``D`` perfectly nested loops."""

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
        """Path ids for one visit.

        Each outer iteration descends through every level, runs the inner
        loop, and exits back up: ``descend × (D−1), inner × n, exit``.
        """
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


# ----------------------------------------------------------------------
# Seeding: numpy's SeedSequence, one array operation per step
# ----------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def seed_states(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed.

    Row ``i`` is the PCG64 seed state ``default_rng(seeds[i])`` starts
    from.  numpy hashes a seed's little-endian 32-bit words into a
    4-word pool and the pool into the state; the multipliers it hashes
    with evolve independently of the data, so seeds with the same word
    count take the same steps, here each one array operation over all
    of them (wrapping ``uint32`` arithmetic, as numpy's).
    """
    seeds = [operator.index(seed) for seed in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    word_counts = [max(1, -(-seed.bit_length() // 32)) for seed in seeds]
    states = np.empty((len(seeds), 4), dtype=np.uint64)
    for count in set(word_counts):
        rows = [i for i, words in enumerate(word_counts) if words == count]
        entropy = np.array(
            [
                [(seeds[i] >> (32 * word)) & _MASK32 for i in rows]
                for word in range(count)
            ],
            dtype=np.uint32,
        )
        states[rows] = _hash_states(entropy)
    return states


def _hasher(hash_const: int, multiplier: int):
    """numpy's ``hashmix`` with its running multiplier."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * multiplier) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _hash_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix_entropy`` then ``generate_state(4,
    np.uint64)``; row ``w`` of ``entropy`` is word ``w`` of every seed."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    output = _hasher(_INIT_B, _MULT_B)
    words = [output(pool[i % _POOL_SIZE]) for i in range(8)]
    # Word pairs read as little-endian uint64s, as numpy reads them.
    state = np.stack(words, axis=1).astype("<u4").view("<u8")
    return state.astype(np.uint64)


@functools.cache
def _state_sequence() -> type:
    """An ``ISeedSequence`` that serves one precomputed PCG64 state.

    Made on first use, so importing this module does not load
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateSequence(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype != np.uint64:
                raise ValueError("serves only PCG64's 4 uint64 words")
            return self.state

    return StateSequence


def seeded_generators(seeds) -> list[np.random.Generator]:
    """``default_rng(s)`` for every seed, seeded in one pass."""
    from numpy.random import PCG64, Generator

    sequence = _state_sequence()
    return [Generator(PCG64(sequence(state))) for state in seed_states(seeds)]


# ----------------------------------------------------------------------
# Building a run of identical regions
# ----------------------------------------------------------------------


def build_run(spec: RegionSpec, factory: PathFactory, seeds) -> list:
    """One region of ``spec`` per seed, built as one run.

    Region ``i`` draws from ``default_rng(seeds[i])`` and gets the uids,
    addresses and path ids it would get built alone after region
    ``i − 1``: the run's uid ranges come from one cumulative sum and its
    paths are staged in region order as one block of rows.
    """
    rngs = seeded_generators(seeds)
    if spec.kind == "nest":
        return _build_nests(spec, factory, rngs)
    return _build_loops(spec, factory, rngs)


def _build_loops(spec, factory, rngs) -> list[LoopRegion]:
    tails = spec.num_tails
    # The one draw from each region's own stream before it is visited.
    block_counts = np.array(
        [
            rng.integers(spec.blocks_min, spec.blocks_max + 1, size=tails)
            for rng in rngs
        ]
    )
    heads = factory.allocate(1 + 2 * block_counts.max(axis=1))
    # Each region's rows: its tails in variant order, then its exit path
    # (a two-block variant-0 row with the exit signature).
    variants = np.append(np.arange(tails), 0)
    num_blocks = np.empty((len(rngs), tails + 1), dtype=np.int64)
    num_blocks[:, :tails] = block_counts
    num_blocks[:, tails] = 2
    exits = np.zeros(tails + 1, dtype=bool)
    exits[tails] = True
    ids = factory.stage(
        heads[:, None], variants, num_blocks, spec.instr_per_block, exits
    )
    tail_cdf = zipf_probabilities(tails, spec.tail_skew).cumsum()
    tail_cdf /= tail_cdf[-1]
    tail_cdf.flags.writeable = False
    exit_ids = ids[:, tails].tolist()
    return [
        LoopRegion(spec, rng, row[:tails], exit_id, tail_cdf)
        for rng, row, exit_id in zip(rngs, ids, exit_ids)
    ]


def _build_nests(spec, factory, rngs) -> list[NestedRegion]:
    levels = spec.depth - 1
    inner_blocks = np.array(
        [
            int(rng.integers(spec.blocks_min, spec.blocks_max + 1))
            for rng in rngs
        ],
        dtype=np.int64,
    )
    # Every outer level owns 8 body blocks, the inner loop two per block
    # of its iteration path.
    spans = np.full((len(rngs), spec.depth), 9, dtype=np.int64)
    spans[:, levels] = 1 + 2 * inner_blocks
    heads = factory.allocate(spans.ravel()).reshape(spans.shape)
    # Each region's rows: one descend path per outer level (its head
    # down to the next level's latch), the inner tail, the inner exit.
    heads = np.concatenate([heads, heads[:, levels:]], axis=1)
    num_blocks = np.full(heads.shape, 3, dtype=np.int64)
    num_blocks[:, levels] = inner_blocks
    num_blocks[:, levels + 1] = 2
    variants = np.ones(levels + 2, dtype=np.int64)
    variants[-1] = 0
    exits = variants == 0
    ids = factory.stage(
        heads, variants, num_blocks, spec.instr_per_block, exits
    )
    inner = ids[:, levels:].tolist()
    return [
        NestedRegion(spec, rng, row[:levels], tail_id, exit_id)
        for rng, row, (tail_id, exit_id) in zip(rngs, ids, inner)
    ]
