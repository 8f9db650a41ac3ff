"""The sweep execution engine: planner, executor, result cache.

Every Figure 2/3-style delay sweep funnels through
:func:`~repro.experiments.engine.executor.run_sweep`, which decomposes
the sweep into independent (benchmark, scheme, τ) tasks, serves cached
cells from a content-addressed on-disk store, replays the rest —
in-process, or on a thread pool with ``workers > 0`` — and reassembles
the canonical result order.  See ``docs/sweep_engine.md`` for the
design and the determinism and invalidation guarantees.
"""

from repro.experiments.engine.cache import (
    CODE_VERSION,
    CacheStats,
    SweepCache,
    atomic_write_text,
    cache_key,
    trace_digest,
)
from repro.experiments.engine.executor import (
    ReplayContext,
    cell_name,
    run_sweep,
)
from repro.experiments.engine.graph import (
    GENERATOR_VERSION,
    ArtifactGraph,
    GraphNode,
    GraphPlan,
    GraphState,
    NodeStatus,
    RenderStore,
    TargetSpec,
    config_digest,
    plan_graph,
    spec_digest,
)
from repro.experiments.engine.planner import (
    SweepTask,
    autotune_chunk_size,
    chunk_tasks,
    group_by_benchmark,
    plan_sweep,
)

__all__ = [
    "CODE_VERSION",
    "GENERATOR_VERSION",
    "ArtifactGraph",
    "CacheStats",
    "GraphNode",
    "GraphPlan",
    "GraphState",
    "NodeStatus",
    "RenderStore",
    "ReplayContext",
    "SweepCache",
    "SweepTask",
    "TargetSpec",
    "atomic_write_text",
    "autotune_chunk_size",
    "cache_key",
    "cell_name",
    "chunk_tasks",
    "config_digest",
    "group_by_benchmark",
    "plan_graph",
    "plan_sweep",
    "run_sweep",
    "spec_digest",
    "trace_digest",
]
