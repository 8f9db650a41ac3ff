"""Edge profiling versus path profiling: the offline "showdown".

Paper §7 invokes Ball, Mataga & Sagiv (POPL'98): "collecting edge
profiles provides sufficient information to compute a large percentage
of the hot portion of the corresponding path profile" — the offline
counterpart of the paper's own less-is-more result.  This module
reproduces that comparison on our traces:

1. build the edge profile implied by a path trace (every block-to-block
   transition weighted by its flow);
2. *estimate* a path profile from edges alone: each observed path's
   frequency is bounded by its minimum edge weight (the classic
   max-flow-style bound), and hot-path candidates are ranked by that
   bound;
3. score the estimate against the true path profile: how much of the
   true hot flow do the edge-derived candidates cover, and how often
   does edge-derived ranking agree with the true ranking.

The interesting outcome mirrors BMS: edge profiles recover most hot
*flow*, but mis-rank paths through blocks with interleaved successors —
exactly the branch-correlation information paths carry and edges lose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.metrics.hotpaths import hot_path_set
from repro.trace.recorder import PathTrace


def edge_profile_of(trace: PathTrace) -> dict[tuple[int, int], int]:
    """The edge profile a block-level profiler would have collected."""
    counts: dict[tuple[int, int], int] = {}
    freqs = trace.freqs()
    for path_id, path in enumerate(trace.table):
        flow = int(freqs[path_id])
        if flow == 0:
            continue
        blocks = path.blocks
        for src, dst in zip(blocks, blocks[1:]):
            key = (src, dst)
            counts[key] = counts.get(key, 0) + flow
    return counts


def estimate_path_freqs(
    trace: PathTrace, edges: dict[tuple[int, int], int]
) -> np.ndarray:
    """Edge-derived upper bound on each path's frequency.

    A path cannot execute more often than its least-travelled edge;
    single-block paths are bounded by the flow entering their head.
    """
    estimates = np.zeros(trace.num_paths, dtype=np.int64)
    head_inflow: dict[int, int] = {}
    for (src, dst), count in edges.items():
        head_inflow[dst] = head_inflow.get(dst, 0) + count
    for path_id, path in enumerate(trace.table):
        blocks = path.blocks
        if len(blocks) == 1:
            estimates[path_id] = head_inflow.get(blocks[0], 0)
            continue
        bound = min(
            edges.get((src, dst), 0)
            for src, dst in zip(blocks, blocks[1:])
        )
        estimates[path_id] = bound
    return estimates


@dataclass(frozen=True)
class ShowdownResult:
    """Outcome of the edge-vs-path comparison on one trace."""

    benchmark: str
    #: Size of the true 0.1% hot set.
    true_hot: int
    #: Hot paths also in the edge-derived top-|hot| candidates.
    recovered: int
    #: True hot flow covered by the edge-derived candidate set.
    hot_flow_coverage_percent: float
    #: Mean relative overestimation of hot-path frequencies by the
    #: edge bound (0 = exact; > 0 = edges lose correlation).
    mean_overestimate: float

    @property
    def recovery_percent(self) -> float:
        """Share of the true hot set the edge profile identifies."""
        if self.true_hot == 0:
            return 0.0
        return 100.0 * self.recovered / self.true_hot


def edge_vs_path_showdown(
    trace: PathTrace, fraction: float = 0.001
) -> ShowdownResult:
    """Run the BMS-style comparison on ``trace``."""
    if trace.num_paths == 0:
        raise ReproError("cannot compare profiles of an empty trace")
    hot = hot_path_set(trace, fraction)
    freqs = trace.freqs()
    edges = edge_profile_of(trace)
    estimates = estimate_path_freqs(trace, edges)

    true_hot_ids = set(int(p) for p in hot.hot_ids())
    k = len(true_hot_ids)
    candidate_ids = set(
        int(p) for p in np.argsort(-estimates, kind="stable")[:k]
    )
    recovered = len(true_hot_ids & candidate_ids)
    covered_flow = int(freqs[sorted(true_hot_ids & candidate_ids)].sum())

    overestimates = []
    for path_id in true_hot_ids:
        true_freq = int(freqs[path_id])
        if true_freq > 0:
            overestimates.append(
                (int(estimates[path_id]) - true_freq) / true_freq
            )
    mean_over = float(np.mean(overestimates)) if overestimates else 0.0

    return ShowdownResult(
        benchmark=trace.name,
        true_hot=k,
        recovered=recovered,
        hot_flow_coverage_percent=(
            100.0 * covered_flow / hot.hot_flow if hot.hot_flow else 0.0
        ),
        mean_overestimate=mean_over,
    )
