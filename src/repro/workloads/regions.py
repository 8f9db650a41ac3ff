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
(:func:`seed_states`), takes each region's block counts from one
``random_raw`` call (:func:`lemire_draws` is numpy's bounded draw over
those words) and stages the run's paths as one block of rows.

A visit makes only the draws its output needs, two generator calls, and
returns its path count; the schedule needs nothing else.  The draws wait
in the region's run until :class:`VisitRenderer` turns a piece of the
schedule into path ids in a fixed number of array operations per run.
"""

from __future__ import annotations

import functools
import itertools
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
        Inclusive range of per-path block counts, at most 2**32 values.
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
        if not 0 <= self.blocks_max - self.blocks_min < 2**32:
            raise WorkloadError(
                "blocks_max must be at least blocks_min, and the range"
                " at most 2**32 values"
            )


class LoopRegion:
    """One loop with ``J`` tail variants: its stream and first path id.

    The region's paths are ``J + 1`` consecutive ids from
    :attr:`first_id`: tail variant ``j`` is ``first_id + j`` and the
    loop-exit path is ``first_id + J``.
    """

    __slots__ = ("first_id", "_rng", "_run", "_fresh")

    def __init__(
        self, run: _LoopRun, rng: np.random.Generator, first_id: int
    ):
        self.first_id = first_id
        self._rng = rng
        self._run = run
        self._fresh = True

    def visit(self) -> int:
        """Draw one visit and return how many paths it runs.

        A visit is its iterations, one sampled tail each, then the exit
        path.  The first visit also walks every tail once before them
        (a coverage sweep), modelling the warm-up pass real loops make
        over their input-dependent variants and pinning the region's
        dynamic path count to its design value.  The draws wait in the
        run until :class:`VisitRenderer` turns them into path ids.
        """
        run = self._run
        iterations = self._rng.poisson(run.poisson_mean) + 1
        if run.tail_cdf is None:
            # A single tail is always sampled: skip the uniforms that
            # would choose it, leaving the stream where they would.
            self._rng.bit_generator.advance(iterations)
        else:
            run.pending.append(self._rng.random(iterations))
        if self._fresh:
            self._fresh = False
            return iterations + 1 + run.num_tails
        return iterations + 1


class NestedRegion:
    """``D`` perfectly nested loops: their stream and first path id.

    The region's paths are ``D + 1`` consecutive ids from
    :attr:`first_id`: ``D − 1`` descend paths (one per outer level),
    then the inner loop's iteration path and its exit path.
    """

    __slots__ = ("first_id", "_rng", "_run")

    def __init__(
        self, run: _NestRun, rng: np.random.Generator, first_id: int
    ):
        self.first_id = first_id
        self._rng = rng
        self._run = run

    def visit(self) -> int:
        """Draw one visit and return how many paths it runs.

        Each outer iteration descends through every level, runs the
        inner loop, and exits back up: ``descend × (D−1), inner × n,
        exit``.
        """
        run = self._run
        outer = self._rng.poisson(run.outer_mean) + 1
        inner = self._rng.poisson(run.poisson_mean, size=outer) + 1
        run.pending.append(inner)
        return outer * run.depth + int(inner.sum())


class _LoopRun:
    """What the loops of one run share, and their draws not rendered yet.

    ``tail_cdf`` is the normalized cumulative tail distribution, or
    ``None`` for a single tail.  Each visit of a multi-tail loop leaves
    its uniforms in :attr:`pending`.
    """

    __slots__ = ("num_tails", "poisson_mean", "tail_cdf", "pending")

    def __init__(self, spec: RegionSpec):
        self.num_tails = spec.num_tails
        self.poisson_mean = max(spec.iters_mean - 1.0, 0.0)
        self.tail_cdf = None
        if spec.num_tails > 1:
            tail_cdf = zipf_probabilities(
                spec.num_tails, spec.tail_skew
            ).cumsum()
            tail_cdf /= tail_cdf[-1]
            self.tail_cdf = tail_cdf
        self.pending: list[np.ndarray] = []

    @property
    def fill_offset(self) -> int:
        """The path most of a visit runs: the single tail, or the exit."""
        return 0 if self.tail_cdf is None else self.num_tails

    def render(self, out, starts, lengths, first_ids) -> None:
        """Write this run's visits, pre-filled by :attr:`fill_offset`."""
        tails = self.num_tails
        if self.tail_cdf is None:
            # Coverage and iterations all run tail 0: only the exits.
            out[starts + lengths - 1] = first_ids + 1
            return
        draws, self.pending = self.pending, []
        iterations = np.fromiter(map(len, draws), np.int64, len(draws))
        covered = lengths > iterations + 1
        if covered.any():
            variants = np.arange(tails)
            out[starts[covered, None] + variants] = (
                first_ids[covered, None] + variants
            )
        # Generator.choice(p=...) draws by searching the normalized CDF
        # with uniform samples; searching it directly keeps the random
        # stream and skips choice's per-call validation of p.
        sampled = self.tail_cdf.searchsorted(
            np.concatenate(draws), side="right"
        )
        out[_ranges(starts + tails * covered, iterations)] = (
            np.repeat(first_ids, iterations) + sampled
        )


class _NestRun:
    """What the nests of one run share, and their draws not rendered yet.

    Each visit leaves its inner trip counts, one per outer iteration,
    in :attr:`pending`.
    """

    __slots__ = ("depth", "poisson_mean", "outer_mean", "pending")

    def __init__(self, spec: RegionSpec):
        self.depth = spec.depth
        self.poisson_mean = max(spec.iters_mean - 1.0, 0.0)
        self.outer_mean = max(spec.outer_iters_mean - 1.0, 0.0)
        self.pending: list[np.ndarray] = []

    @property
    def fill_offset(self) -> int:
        """The path most of a visit runs: the inner iteration path."""
        return self.depth - 1

    def render(self, out, starts, lengths, first_ids) -> None:
        """Write this run's visits, pre-filled by :attr:`fill_offset`."""
        draws, self.pending = self.pending, []
        outer = np.fromiter(map(len, draws), np.int64, len(draws))
        inner = np.concatenate(draws)
        levels = self.depth - 1
        # Outer iteration k of the piece starts at its visit's start
        # plus the spans of the visit's earlier iterations.
        spans = inner + self.depth
        before = np.cumsum(spans) - spans
        visit_before = before[np.cumsum(outer) - outer]
        at = np.repeat(starts - visit_before, outer) + before
        heads = np.repeat(first_ids, outer)
        descend = np.arange(levels)
        out[at[:, None] + descend] = heads[:, None] + descend
        out[at + levels + inner] = heads + self.depth


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    for at least one range."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])


class VisitRenderer:
    """Turns recorded visits into path ids, a piece of the schedule at
    a time.

    ``render(order, lengths)`` takes region indices in visit order and
    each visit's path count, as :meth:`LoopRegion.visit` and
    :meth:`NestedRegion.visit` returned it, and consumes the draws those
    visits left in their runs.  A region's ids are consecutive staged
    rows, so each id is the region's first id plus an offset: the piece
    is filled with each visit's most frequent path, then every run
    overwrites its coverage, sampled tails, descend and exit paths in a
    few array operations, whatever the number of visits.
    """

    def __init__(self, regions: list):
        self._first = np.fromiter(
            (region.first_id for region in regions), np.int64, len(regions)
        )
        self._fill = self._first.copy()
        self._runs = []
        low = 0
        for run, members in itertools.groupby(
            regions, key=operator.attrgetter("_run")
        ):
            high = low + sum(1 for _ in members)
            self._fill[low:high] += run.fill_offset
            self._runs.append((low, high, run))
            low = high

    def render(self, order, lengths) -> np.ndarray:
        """The path ids of the visits ``order`` made, in visit order."""
        order = np.asarray(order, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        out = np.repeat(self._fill[order], lengths)
        for low, high, run in self._runs:
            mine = (order >= low) & (order < high)
            if mine.any():
                run.render(
                    out, starts[mine], lengths[mine], self._first[order[mine]]
                )
        return out


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
        return _build_nests(spec, factory, rngs, seeds)
    return _build_loops(spec, factory, rngs, seeds)


def _build_loops(spec, factory, rngs, seeds) -> list[LoopRegion]:
    tails = spec.num_tails
    # The one draw from each region's own stream before it is visited.
    block_counts = _block_counts(spec, rngs, seeds, tails)
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
    run = _LoopRun(spec)
    return [
        LoopRegion(run, rng, first_id)
        for rng, first_id in zip(rngs, ids[:, 0].tolist())
    ]


def _build_nests(spec, factory, rngs, seeds) -> list[NestedRegion]:
    levels = spec.depth - 1
    inner_blocks = _block_counts(spec, rngs, seeds, 1)[:, 0]
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
    run = _NestRun(spec)
    return [
        NestedRegion(run, rng, first_id)
        for rng, first_id in zip(rngs, ids[:, 0].tolist())
    ]


# ----------------------------------------------------------------------
# The block-count draw: Generator.integers over raw words
# ----------------------------------------------------------------------

_HALF = np.uint64(32)


def _block_counts(spec, rngs, seeds, size: int) -> np.ndarray:
    """``rngs[i].integers(blocks_min, blocks_max + 1, size=size)`` as
    row ``i``, leaving every stream where that call would.

    Over the ranges :class:`RegionSpec` admits, at most 2**32 values,
    the call is Lemire's method on 32-bit samples (:func:`lemire_draws`),
    so each region takes the words it needs in one ``random_raw``.  A
    region whose draw hits the rejection case, where numpy takes one
    more sample, starts over from ``default_rng`` of its seed and makes
    the call itself.
    """
    low, high = spec.blocks_min, spec.blocks_max
    span = high - low
    if span == 0:
        # integers() draws nothing from a one-value range.
        return np.full((len(rngs), size), low, dtype=np.int64)
    words = -(-size // 2)
    raw = np.array(
        [rng.bit_generator.random_raw(words) for rng in rngs],
        dtype=np.uint64,
    ).reshape(len(rngs), words)
    counts, rejected = lemire_draws(raw, low, span, size)
    for row in np.flatnonzero(rejected).tolist():
        rngs[row] = np.random.default_rng(seeds[row])
        counts[row] = rngs[row].integers(low, high + 1, size=size)
    return counts


def lemire_draws(
    raw: np.ndarray, low: int, span: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw of ``size`` integers in ``[low, low + span]``
    from each row of 64-bit ``raw`` words, with ``0 < span < 2**32``.

    ``Generator.integers`` takes 32-bit samples, the low then the high
    half of each word, and maps sample ``x`` to ``low + (x·(span+1) >>
    32)``, rejecting it when the product's low half falls below
    ``2**32 mod (span + 1)``.  Returns the values and which rows hit
    that case: numpy draws again there, so those rows do not match.
    """
    halves = np.stack([raw & _MASK32, raw >> _HALF], axis=-1)
    samples = halves.reshape(len(raw), -1)[:, :size]
    scaled = samples * np.uint64(span + 1)
    threshold = (_MASK32 - span) % (span + 1)
    rejected = ((scaled & _MASK32) < threshold).any(axis=1)
    return (scaled >> _HALF).astype(np.int64) + low, rejected
