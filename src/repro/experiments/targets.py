"""Target registry and the incremental graph driver.

Every experiment module declares *what* it is — a
:class:`~repro.experiments.engine.graph.TargetSpec` naming its inputs
and its rendering — and this module turns those declarations into an
:class:`~repro.experiments.engine.graph.ArtifactGraph` and executes
exactly the dirty subgraph:

1. :func:`build_graph` instantiates cell nodes (one per benchmark ×
   scheme × τ of every sweep target; shared between Figure 2, Figure 3
   and the claims) and render nodes, keyed by content digests.
2. :func:`plan_targets` diffs the graph against the persisted
   :class:`~repro.experiments.engine.graph.GraphState` — the substance
   of ``repro run --dry-run``.
3. :func:`run_targets` executes the plan: it generates traces **only**
   for benchmarks with dirty cells or dirty direct renders, replays the
   dirty cells through one :func:`~repro.experiments.engine.run_sweep`
   call (the sweep cache serves everything that is clean), rebuilds the
   dirty renders, serves the clean ones with the texts planning read
   from the content-addressed render store, and saves the state if it
   recorded a node — so a warm no-op full repro is a JSON read, one key
   per node, one listing of the cache directory and eight render reads,
   and writes nothing.

Correctness stance: the graph never *invents* results.  Every computed
cell goes through the same ``run_sweep``/builder code paths as a
from-scratch run, and every served artifact is addressed by the Merkle
key of its inputs — byte-identical to what a cold rebuild would print
(locked down by the equivalence tests).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.claims import TARGET as _CLAIMS_TARGET
from repro.experiments.engine import (
    CODE_VERSION,
    SweepCache,
    cache_key,
    run_sweep,
    trace_digest,
)
from repro.experiments.engine.graph import (
    ArtifactGraph,
    GraphNode,
    GraphPlan,
    GraphState,
    RenderStore,
    TargetSpec,
    cell_node_name,
    config_digest,
    plan_graph,
    render_node_name,
    spec_digest,
)
from repro.experiments.figure2 import TARGET as _FIGURE2_TARGET
from repro.experiments.figure3 import TARGET as _FIGURE3_TARGET
from repro.experiments.figure4 import TARGET as _FIGURE4_TARGET
from repro.experiments.figure5 import TARGET as _FIGURE5_TARGET
from repro.experiments.phases import TARGET as _PHASES_TARGET
from repro.experiments.sweep import DEFAULT_DELAYS, SCHEMES, SweepPoint
from repro.experiments.table1 import TARGET as _TABLE1_TARGET
from repro.experiments.table2 import TARGET as _TABLE2_TARGET
from repro.obs.core import Registry, get_registry
from repro.resilience import RetryPolicy
from repro.trace.recorder import PathTrace
from repro.workloads.base import load_benchmark
from repro.workloads.spec import BENCHMARK_ORDER

#: Every experiment's target declaration, in canonical artifact order.
TARGETS: dict[str, TargetSpec] = {
    spec.name: spec
    for spec in (
        _TABLE1_TARGET,
        _TABLE2_TARGET,
        _FIGURE2_TARGET,
        _FIGURE3_TARGET,
        _FIGURE4_TARGET,
        _FIGURE5_TARGET,
        _CLAIMS_TARGET,
        _PHASES_TARGET,
    )
}


def target_for(name: str) -> TargetSpec:
    """Resolve a target by experiment name (loud on unknowns)."""
    try:
        return TARGETS[name]
    except KeyError:
        known = ", ".join(TARGETS)
        raise ExperimentError(
            f"unknown experiment {name!r}; known: {known}"
        ) from None


@dataclass
class TargetGraph:
    """A built graph plus the name maps the driver needs."""

    graph: ArtifactGraph
    flow_scale: float
    #: cell node name → (benchmark, scheme, delay)
    cells: dict[str, tuple[str, str, int]] = field(default_factory=dict)
    #: render node name → target name
    renders: dict[str, str] = field(default_factory=dict)


def build_graph(
    names: list[str], flow_scale: float = 1.0
) -> TargetGraph:
    """Instantiate the artifact graph for ``names`` at ``flow_scale``.

    Cell nodes are shared: every sweep target referencing the same
    (benchmark, scheme, τ) depends on the one node built for it, so
    regenerating Figure 3 after Figure 2 plans zero new cells.  Node
    names embed the flow scale — smoke and full runs never collide in
    the state file.
    """
    built = TargetGraph(graph=ArtifactGraph(), flow_scale=flow_scale)
    graph = built.graph
    for name in names:
        target = target_for(name)
        render_name = render_node_name(name, flow_scale)
        if target.sweep:
            deps = []
            for bench in target.benchmarks:
                workload = spec_digest(bench, flow_scale)
                for scheme in SCHEMES:
                    for delay in DEFAULT_DELAYS:
                        cell_name = cell_node_name(
                            bench, scheme, delay, flow_scale
                        )
                        deps.append(cell_name)
                        if cell_name in built.cells:
                            continue
                        graph.add(
                            GraphNode(
                                name=cell_name,
                                kind="cell",
                                inputs={
                                    "workload": workload,
                                    "scheme": scheme,
                                    "delay": str(int(delay)),
                                    "code": CODE_VERSION,
                                },
                            )
                        )
                        built.cells[cell_name] = (bench, scheme, int(delay))
            graph.add(
                GraphNode(
                    name=render_name,
                    kind="render",
                    inputs={
                        "target": name,
                        "version": target.version,
                        "schemes": ",".join(SCHEMES),
                        "delays": ",".join(str(d) for d in DEFAULT_DELAYS),
                    },
                    deps=tuple(deps),
                )
            )
        else:
            inputs = {"target": name, "version": target.version}
            for bench in target.benchmarks:
                inputs[f"workload:{bench}"] = spec_digest(bench, flow_scale)
            if target.config_for is not None:
                inputs["workload:config"] = config_digest(
                    target.config_for(flow_scale)
                )
            graph.add(
                GraphNode(name=render_name, kind="render", inputs=inputs)
            )
        built.renders[render_name] = name
    return built


def graph_state_path(cache: SweepCache) -> pathlib.Path:
    """Where the graph's build record lives (next to the cell cache)."""
    return cache.root / "graph" / "state.json"


def render_store(cache: SweepCache) -> RenderStore:
    """The render store that rides along with ``cache``."""
    return RenderStore(cache.root / "graph" / "renders")


@dataclass
class TargetPlan:
    """A built graph diffed against its persisted state."""

    built: TargetGraph
    state: GraphState
    renders: RenderStore
    plan: GraphPlan


def plan_targets(
    names: list[str] | None,
    flow_scale: float = 1.0,
    cache: SweepCache | None = None,
) -> TargetPlan:
    """Build and plan without executing anything (the dry-run core)."""
    if cache is None:
        raise ExperimentError(
            "the artifact graph needs a cache directory; "
            "it cannot run with --no-cache"
        )
    resolved = list(names) if names else list(TARGETS)
    built = build_graph(resolved, flow_scale)
    state = GraphState.load(graph_state_path(cache))
    renders = render_store(cache)
    return TargetPlan(
        built=built,
        state=state,
        renders=renders,
        plan=plan_graph(built.graph, state, cache, renders),
    )


@dataclass
class TargetRun:
    """One executed graph run: the artifact texts plus its plan."""

    texts: dict[str, str]
    plan: GraphPlan
    executed_cells: int
    executed_renders: int


def _load_traces(
    names: set[str], flow_scale: float
) -> dict[str, PathTrace]:
    """Materialize traces for ``names``, canonical order preserved."""
    return {
        name: load_benchmark(name, flow_scale=flow_scale).trace()
        for name in BENCHMARK_ORDER
        if name in names
    }


def run_targets(
    names: list[str] | None = None,
    flow_scale: float = 1.0,
    workers: int = 0,
    cache: SweepCache | None = None,
    obs: Registry | None = None,
    resilience: RetryPolicy | None = None,
) -> TargetRun:
    """Execute the dirty subgraph and return every requested artifact.

    The engine parameters (``workers``, ``resilience``) reach the one
    :func:`run_sweep` call that replays dirty cells; they never affect
    results, only how the replay is run.  ``obs`` lands the graph
    accounting under its ``graph.`` prefix (``nodes_total`` /
    ``nodes_dirty`` / ``nodes_skipped`` / ``cells_executed`` /
    ``renders_executed`` / ``renders_served``).
    """
    registry = get_registry(obs).child("graph")
    with registry.span("plan"):
        planned = plan_targets(names, flow_scale, cache)
    built, state, renders, plan = (
        planned.built,
        planned.state,
        planned.renders,
        planned.plan,
    )
    graph = built.graph
    registry.counter("runs").inc()
    registry.counter("nodes_total").inc(len(graph))
    registry.counter("nodes_dirty").inc(len(plan.dirty))
    registry.counter("nodes_skipped").inc(plan.clean_count)

    # --- Which benchmarks must regenerate traces ---------------------
    # Dirty cells force a sweep over their benchmark; dirty *direct*
    # renders force trace materialization for their builders.  A clean
    # cell that a dirty sweep render consumes is read from the cache —
    # and promoted into the run set if the read fails, so one pass
    # covers cache rot without a second planning round.
    run_benchmarks = {
        built.cells[status.node.name][0] for status in plan.dirty_cells
    }
    promoted: set[str] = set()
    fetched: dict[str, SweepPoint] = {}
    for status in plan.dirty_renders:
        target = TARGETS[built.renders[status.node.name]]
        if not target.sweep:
            continue
        for cell_name in status.node.deps:
            bench, _, _ = built.cells[cell_name]
            if bench in run_benchmarks or cell_name in fetched:
                continue
            recorded = state.nodes.get(cell_name, {})
            point = (
                cache.get(recorded["cache_key"])
                if recorded.get("cache_key")
                else None
            )
            if point is None:
                run_benchmarks.add(bench)
                promoted.add(cell_name)
            else:
                fetched[cell_name] = point
    trace_benchmarks = set(run_benchmarks)
    for status in plan.dirty_renders:
        target = TARGETS[built.renders[status.node.name]]
        if not target.sweep:
            trace_benchmarks.update(target.benchmarks)

    # --- Execute cells -----------------------------------------------
    executed: dict[tuple[str, str, int], SweepPoint] = {}
    with registry.span("cells"):
        traces = _load_traces(trace_benchmarks, flow_scale)
        if run_benchmarks:
            sweep_traces = {
                name: trace
                for name, trace in traces.items()
                if name in run_benchmarks
            }
            points = run_sweep(
                sweep_traces,
                workers=workers,
                cache=cache,
                obs=obs,
                resilience=resilience,
            )
            for point in points:
                executed[(point.benchmark, point.scheme, point.delay)] = (
                    point
                )
            digests = {
                name: trace_digest(trace)
                for name, trace in sweep_traces.items()
            }
            # Record fresh build state for every cell of the benchmarks
            # that ran: graph key + the sweep-cache address the engine
            # stored the point under.
            for cell_name, (bench, scheme, delay) in built.cells.items():
                if bench not in digests:
                    continue
                node = graph.node(cell_name)
                state.record(
                    cell_name,
                    {
                        "key": graph.key(cell_name),
                        "inputs": node.inputs,
                        "cache_key": cache_key(
                            digests[bench], scheme, delay
                        ),
                    },
                )
    # Cells the graph scheduled for (re)computation: the planned-dirty
    # ones plus any clean cell promoted because its cached point could
    # not be read back.  (Inside run_sweep the remaining clean cells of
    # a promoted benchmark are cache hits, not replays.)
    executed_cells = len(plan.dirty_cells) + len(promoted)
    registry.counter("cells_executed").inc(executed_cells)

    def point_for(cell_name: str) -> SweepPoint:
        coords = built.cells[cell_name]
        point = executed.get(coords)
        if point is not None:
            return point
        point = fetched.get(cell_name)
        if point is not None:
            return point
        recorded = state.nodes.get(cell_name, {})
        if recorded.get("cache_key"):
            point = cache.get(recorded["cache_key"])
            if point is not None:
                fetched[cell_name] = point
                return point
        raise ExperimentError(
            f"sweep cell {cell_name} disappeared from the cache mid-run; "
            "rerun to recompute it"
        )

    # --- Render ------------------------------------------------------
    texts: dict[str, str] = {}
    executed_renders = 0
    # Create both counters up front so every manifest carries them,
    # zero-valued on runs where one path never fires.
    renders_executed = registry.counter("renders_executed")
    renders_served = registry.counter("renders_served")
    with registry.span("renders"):
        for status in (
            plan.statuses[name]
            for name in built.renders
        ):
            node = status.node
            target = TARGETS[built.renders[node.name]]
            if status.dirty:
                if target.sweep:
                    points = [point_for(dep) for dep in node.deps]
                    text = target.render_points(points, DEFAULT_DELAYS)
                else:
                    subset = {
                        name: traces[name]
                        for name in target.benchmarks
                        if name in traces
                    }
                    text = target.build(subset, flow_scale)
                renders.put(status.key, text)
                state.record(
                    node.name,
                    {"key": status.key, "inputs": node.inputs},
                )
                executed_renders += 1
                renders_executed.inc()
            else:
                text = plan.texts[node.name]
                renders_served.inc()
            texts[target.name] = text
    # A no-op run recorded nothing: leave the state file untouched.
    if state.modified:
        state.save()
    return TargetRun(
        texts=texts,
        plan=plan,
        executed_cells=executed_cells,
        executed_renders=executed_renders,
    )
