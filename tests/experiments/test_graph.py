"""The incremental artifact graph: correct keys, exact dirtiness,
byte-identical results and millisecond warm no-ops.

The tentpole guarantees under test:

* a warm no-op run executes **zero** cells and zero renders;
* ``--dry-run``'s plan lists exactly the nodes a real run executes;
* every graph-served artifact is byte-identical to a from-scratch
  computation (the oracle in ``tests/experiments/scratch_oracle.py``);
* invalidation is surgical — one changed spec dirties one benchmark's
  subgraph, a vanished cache entry dirties one cell and *not* the
  render built from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import NamedTuple

import pytest

from repro.errors import ExperimentError
from repro.experiments import plan_targets, run_targets
from repro.experiments.engine import SweepCache, graph as graph_mod
from repro.experiments.engine.graph import (
    ArtifactGraph,
    GraphNode,
    GraphState,
    cell_node_name,
    config_digest,
    render_node_name,
    spec_digest,
)
from repro.experiments.phases import phases_config
from repro.experiments.targets import (
    TARGETS,
    TargetRun,
    build_graph,
    graph_state_path,
    render_store,
)
from repro.obs import Registry
from repro.workloads.spec import BENCHMARKS
from tests.conftest import ENGINE_TEST_SCALE
from tests.experiments.scratch_oracle import run_experiment

#: The targets the shared warm cache is primed with: one sweep-backed
#: figure (306 cells) and one direct table (a single render node).
PRIMED = ["figure2", "table2"]

SCALE = ENGINE_TEST_SCALE


#: SHA-256 of ``graph/state.json`` after the cold run of :data:`PRIMED`.
#: It holds 306 cell keys, 2 render keys and, as cache addresses, the
#: nine surrogates' trace digests.  Changing it makes every user's cache
#: plan dirty once, so a change to seeding, path staging, digests or key
#: derivation must fail here rather than pass silently.
PRIMED_STATE_SHA256 = (
    "8c64fd2c2e0a1ba7ab860d20a269c86baf029c81fa7d74d545938fece91bed20"
)


class Primed(NamedTuple):
    root: pathlib.Path
    cold: TargetRun
    #: SHA-256 of the state file right after the cold run.
    state_sha256: str


@pytest.fixture(scope="module")
def graph_root(tmp_path_factory):
    """A cache root primed by one cold graph run of :data:`PRIMED`."""
    root = tmp_path_factory.mktemp("graph") / "cache"
    cold = run_targets(PRIMED, flow_scale=SCALE, cache=SweepCache(root))
    assert cold.executed_cells == 306
    assert cold.executed_renders == 2
    state = graph_state_path(SweepCache(root)).read_bytes()
    return Primed(root, cold, hashlib.sha256(state).hexdigest())


def _fresh_cache(graph_root) -> SweepCache:
    """A new cache instance over the primed root (fresh stats)."""
    return SweepCache(graph_root[0])


# ----------------------------------------------------------------------
# Digests and keys
# ----------------------------------------------------------------------


def test_spec_digest_stable_and_sensitive():
    assert spec_digest("compress", 0.5) == spec_digest("compress", 0.5)
    assert spec_digest("compress", 0.5) != spec_digest("compress", 1.0)
    assert spec_digest("compress", 0.5) != spec_digest("gcc", 0.5)
    with pytest.raises(ExperimentError, match="unknown benchmark"):
        spec_digest("quake", 1.0)


def test_spec_digest_tracks_spec_changes(monkeypatch):
    """Editing a benchmark's declaration changes its digest."""
    before = spec_digest("compress", 1.0)
    monkeypatch.setattr(graph_mod, "_spec_digest_memo", {})
    monkeypatch.setitem(
        BENCHMARKS,
        "compress",
        dataclasses.replace(BENCHMARKS["compress"], seed=999_999),
    )
    assert spec_digest("compress", 1.0) != before


def test_spec_digest_tracks_generator_version(monkeypatch):
    before = spec_digest("compress", 1.0)
    monkeypatch.setattr(graph_mod, "_spec_digest_memo", {})
    monkeypatch.setattr(
        graph_mod, "GENERATOR_VERSION", "workload-generator-v2"
    )
    assert spec_digest("compress", 1.0) != before


def _reference_digest(payload) -> str:
    """SHA-256 of the canonical JSON spelling, from the stdlib alone."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference_config_digest(config) -> str:
    return _reference_digest(
        {
            "generator": graph_mod.GENERATOR_VERSION,
            "config": dataclasses.asdict(config),
        }
    )


@pytest.mark.parametrize("flow_scale", [0.02, 0.1, 1.0])
def test_config_digest_matches_asdict_form(flow_scale):
    """The spliced encoding hashes the JSON ``dataclasses.asdict``
    gives, so graph states recorded before it stay valid."""
    config = phases_config(flow_scale)
    assert config_digest(config) == _reference_config_digest(config)


@pytest.mark.parametrize("flow_scale", [0.02, 0.1, 1.0])
def test_every_node_key_matches_merkle_reference(flow_scale, monkeypatch):
    """Every key of the eight-target graph, and the workload digests
    its nodes consume, equal a reference built with ``json.dumps`` and
    ``hashlib`` from the node declarations: a cache filled by an earlier
    release stays warm at every scale."""
    monkeypatch.setattr(graph_mod, "_spec_digest_memo", {})
    for name, spec in BENCHMARKS.items():
        assert spec_digest(name, flow_scale) == _reference_digest(
            {
                "generator": graph_mod.GENERATOR_VERSION,
                "benchmark": dataclasses.asdict(spec),
                "flow_scale": repr(float(flow_scale)),
            }
        ), name
        config = spec.config(flow_scale)
        # Several distinct region specs, each repeated: the splice path.
        assert 1 < len({id(region) for region in config.regions}) < len(
            config.regions
        )
        assert config_digest(config) == _reference_config_digest(config)

    built = build_graph(list(TARGETS), flow_scale)
    assert len(built.graph) == 314
    reference: dict[str, str] = {}
    for node in built.graph.nodes():
        reference[node.name] = _reference_digest(
            {
                "kind": node.kind,
                "inputs": node.inputs,
                "deps": [[dep, reference[dep]] for dep in node.deps],
            }
        )
        assert built.graph.key(node.name) == reference[node.name], node.name


def test_merkle_key_propagates_through_deps():
    def build(cell_inputs):
        graph = ArtifactGraph()
        graph.add(GraphNode("cell:a", "cell", cell_inputs))
        graph.add(
            GraphNode("render:r", "render", {"version": "v1"}, ("cell:a",))
        )
        return graph

    base = build({"workload": "aa", "code": "v1"})
    same = build({"workload": "aa", "code": "v1"})
    changed = build({"workload": "bb", "code": "v1"})
    assert base.key("render:r") == same.key("render:r")
    # The render's own inputs did not change, but its dep's key did.
    assert base.key("render:r") != changed.key("render:r")


def test_graph_rejects_conflicts_and_forward_refs():
    graph = ArtifactGraph()
    graph.add(GraphNode("cell:a", "cell", {"x": "1"}))
    graph.add(GraphNode("cell:a", "cell", {"x": "1"}))  # idempotent
    with pytest.raises(ExperimentError, match="conflicting definitions"):
        graph.add(GraphNode("cell:a", "cell", {"x": "2"}))
    with pytest.raises(ExperimentError, match="undefined node"):
        graph.add(GraphNode("render:r", "render", {}, ("cell:missing",)))


def test_sweep_targets_share_cell_nodes():
    built = build_graph(["figure2", "figure3", "claims"], SCALE)
    # 306 shared cells + one render per target.
    assert len(built.graph) == 306 + 3
    assert len(built.cells) == 306


# ----------------------------------------------------------------------
# Cold → warm: do nothing, fast, and byte-identically
# ----------------------------------------------------------------------


def test_cold_results_match_from_scratch_run(graph_root):
    cold = graph_root.cold
    # No cache at all: the purest from-scratch recomputation.
    assert cold.texts["figure2"] == run_experiment(
        "figure2", flow_scale=SCALE
    )
    assert cold.texts["table2"] == run_experiment("table2", flow_scale=SCALE)


def test_warm_run_executes_nothing(graph_root):
    cold = graph_root.cold
    registry = Registry()
    warm = run_targets(
        PRIMED, flow_scale=SCALE, cache=_fresh_cache(graph_root),
        obs=registry,
    )
    assert warm.executed_cells == 0
    assert warm.executed_renders == 0
    assert warm.texts == cold.texts
    counters = registry.snapshot()["counters"]
    assert counters["graph.nodes_total"] == 308
    assert counters["graph.nodes_dirty"] == 0
    assert counters["graph.nodes_skipped"] == 308
    assert counters["graph.renders_served"] == 2
    assert counters["graph.cells_executed"] == 0


def test_cold_state_file_is_pinned(graph_root):
    """A cache filled by an earlier release stays warm: the cold run
    writes the state file byte for byte as before."""
    assert graph_root.state_sha256 == PRIMED_STATE_SHA256


def test_warm_plan_is_empty(graph_root):
    plan = plan_targets(
        PRIMED, flow_scale=SCALE, cache=_fresh_cache(graph_root)
    ).plan
    assert not plan.dirty
    assert plan.explain_lines() == []
    assert "0 dirty" in plan.summary()


def test_noop_run_writes_nothing(graph_root):
    """A run that records no node leaves the state file untouched."""
    run_targets(PRIMED, flow_scale=SCALE, cache=_fresh_cache(graph_root))
    state_file = graph_state_path(_fresh_cache(graph_root))
    before = (state_file.read_bytes(), state_file.stat().st_mtime_ns)
    warm = run_targets(
        PRIMED, flow_scale=SCALE, cache=_fresh_cache(graph_root)
    )
    assert warm.executed_cells == warm.executed_renders == 0
    assert (state_file.read_bytes(), state_file.stat().st_mtime_ns) == before


def test_other_scale_plans_dirty_without_evicting_warm_state(graph_root):
    """Node names embed the flow scale: a smoke-scale plan is all-new
    while the primed scale stays clean in the same state file."""
    cache = _fresh_cache(graph_root)
    other = plan_targets(PRIMED, flow_scale=SCALE / 2, cache=cache).plan
    assert len(other.dirty) == len(other.statuses)
    warm = plan_targets(PRIMED, flow_scale=SCALE, cache=cache).plan
    assert not warm.dirty


def test_figure3_reuses_figure2_cells(graph_root):
    """A target never planned before, over already-built cells: zero
    cell executions, one render."""
    cache = _fresh_cache(graph_root)
    run = run_targets(["figure3"], flow_scale=SCALE, cache=cache)
    assert run.executed_cells == 0
    assert run.executed_renders == 1
    assert run.texts["figure3"] == run_experiment(
        "figure3", flow_scale=SCALE, cache=_fresh_cache(graph_root)
    )
    # And it is now clean too.
    warm = run_targets(["figure3"], flow_scale=SCALE, cache=cache)
    assert warm.executed_cells == 0
    assert warm.executed_renders == 0


def test_all_targets_match_registry_byte_for_byte(graph_root):
    """Full artifact surface: every graph text equals its from-scratch
    ``run_experiment`` rendering (the sweep cache only accelerates)."""
    cache = _fresh_cache(graph_root)
    run = run_targets(None, flow_scale=SCALE, cache=cache)
    assert set(run.texts) == {
        "table1", "table2", "figure2", "figure3",
        "figure4", "figure5", "claims", "phases",
    }
    for name, text in run.texts.items():
        assert text == run_experiment(
            name, flow_scale=SCALE, cache=_fresh_cache(graph_root)
        ), f"graph-built {name} diverged from run_experiment"
    warm = run_targets(None, flow_scale=SCALE, cache=cache)
    assert warm.executed_cells == 0
    assert warm.executed_renders == 0


# ----------------------------------------------------------------------
# Surgical invalidation
# ----------------------------------------------------------------------


def test_missing_cache_entry_dirties_cell_but_not_render(graph_root):
    """A vanished cache entry reruns its cell to restore the cache; the
    render's content is provably unchanged, so it is served."""
    cache = _fresh_cache(graph_root)
    state = GraphState.load(graph_state_path(cache))
    cell = cell_node_name("compress", "net", 50, SCALE)
    entry = cache.entry_path(state.nodes[cell]["cache_key"])
    entry.unlink()

    plan = plan_targets(PRIMED, flow_scale=SCALE, cache=cache).plan
    assert [s.node.name for s in plan.dirty] == [cell]
    assert plan.statuses[cell].reasons == ("cache entry missing",)
    assert not plan.dirty_renders

    run = run_targets(PRIMED, flow_scale=SCALE, cache=cache)
    assert run.executed_cells == 1
    assert run.executed_renders == 0
    assert run.texts == graph_root[1].texts
    assert entry.exists()  # the cache healed


def test_missing_render_is_rebuilt_alone(graph_root):
    cache = _fresh_cache(graph_root)
    store = render_store(cache)
    state = GraphState.load(graph_state_path(cache))
    render = render_node_name("table2", SCALE)
    store.path_for(state.nodes[render]["key"]).unlink()

    plan = plan_targets(PRIMED, flow_scale=SCALE, cache=cache).plan
    assert [s.node.name for s in plan.dirty] == [render]
    assert plan.statuses[render].reasons == ("stored render missing",)

    run = run_targets(PRIMED, flow_scale=SCALE, cache=cache)
    assert run.executed_cells == 0
    assert run.executed_renders == 1
    assert run.texts == graph_root[1].texts


def test_undecodable_render_is_rebuilt_in_the_same_run(graph_root):
    """A stored render that is not UTF-8 plans dirty: one run rebuilds
    exactly that render, and the next run executes nothing."""
    cache = _fresh_cache(graph_root)
    state = GraphState.load(graph_state_path(cache))
    render = render_node_name("table2", SCALE)
    stored = render_store(cache).path_for(state.nodes[render]["key"])
    stored.write_bytes(b"\xff\xfe not utf-8 \x80")

    plan = plan_targets(PRIMED, flow_scale=SCALE, cache=cache).plan
    assert [s.node.name for s in plan.dirty] == [render]
    assert plan.statuses[render].reasons == ("stored render unreadable",)

    run = run_targets(PRIMED, flow_scale=SCALE, cache=cache)
    assert run.executed_cells == 0
    assert run.executed_renders == 1
    assert run.texts == graph_root.cold.texts
    assert stored.read_text(encoding="utf-8") == graph_root.cold.texts[
        "table2"
    ]
    again = run_targets(PRIMED, flow_scale=SCALE, cache=cache)
    assert again.executed_cells == again.executed_renders == 0


def test_code_version_bump_dirties_every_cell(graph_root, monkeypatch):
    """Bumping the engine's CODE_VERSION invalidates all sweep cells
    (and their renders) but leaves direct targets untouched."""
    monkeypatch.setattr(
        "repro.experiments.targets.CODE_VERSION", "sweep-engine-v999"
    )
    plan = plan_targets(PRIMED, flow_scale=SCALE, cache=_fresh_cache(graph_root)).plan
    assert len(plan.dirty_cells) == 306
    dirty_renders = [s.node.name for s in plan.dirty_renders]
    assert dirty_renders == [render_node_name("figure2", SCALE)]
    cell = plan.statuses[cell_node_name("gcc", "net", 1, SCALE)]
    assert "input 'code' changed" in cell.reasons


def test_spec_change_dirties_only_that_subgraph(graph_root, monkeypatch):
    """One edited benchmark spec: its 34 cells, the sweep render and
    the table render that consumes it — nothing else."""
    monkeypatch.setattr(graph_mod, "_spec_digest_memo", {})
    monkeypatch.setitem(
        BENCHMARKS,
        "compress",
        dataclasses.replace(BENCHMARKS["compress"], seed=424_242),
    )
    plan = plan_targets(PRIMED, flow_scale=SCALE, cache=_fresh_cache(graph_root)).plan
    dirty_cells = {s.node.name for s in plan.dirty_cells}
    assert len(dirty_cells) == 2 * 17  # schemes × delays, compress only
    prefix = f"cell:compress@{graph_mod.scale_tag(SCALE)}:"
    assert all(name.startswith(prefix) for name in dirty_cells)
    dirty_renders = {s.node.name for s in plan.dirty_renders}
    assert dirty_renders == {
        render_node_name("figure2", SCALE),
        render_node_name("table2", SCALE),
    }
    figure2 = plan.statuses[render_node_name("figure2", SCALE)]
    assert "34 of 306 input cells changed" in figure2.reasons
    table2 = plan.statuses[render_node_name("table2", SCALE)]
    assert "input 'workload:compress' changed" in table2.reasons


# ----------------------------------------------------------------------
# State robustness and validation
# ----------------------------------------------------------------------


def test_corrupt_or_missing_state_plans_from_scratch(tmp_path):
    missing = GraphState.load(tmp_path / "absent.json")
    assert missing.nodes == {}
    poisoned = tmp_path / "state.json"
    poisoned.write_bytes(b"not json {")
    assert GraphState.load(poisoned).nodes == {}
    poisoned.write_text('{"state_format": 99, "nodes": {}}')
    assert GraphState.load(poisoned).nodes == {}
    # A record that is not an object plans as never built; the others
    # stay.
    good = {"key": "abc", "inputs": {"a": "1"}}
    for record in ("garbage", ["x"], 7, None):
        poisoned.write_text(
            json.dumps(
                {
                    "state_format": graph_mod.STATE_FORMAT,
                    "nodes": {"cell:bad": record, "cell:good": good},
                }
            )
        )
        state = GraphState.load(poisoned)
        assert state.nodes == {"cell:good": good}, record
        graph = ArtifactGraph()
        graph.add(GraphNode("cell:bad", "cell", {"a": "1"}))
        plan = graph_mod.plan_graph(
            graph, state, SweepCache(tmp_path / "cache"), None
        )
        assert plan.statuses["cell:bad"].reasons == ("never built",)


def test_state_round_trip(tmp_path):
    state = GraphState(tmp_path / "deep" / "state.json")
    state.record("cell:x", {"key": "abc", "inputs": {"a": "1"}})
    state.save()
    again = GraphState.load(tmp_path / "deep" / "state.json")
    assert again.nodes == {"cell:x": {"key": "abc", "inputs": {"a": "1"}}}


def test_unknown_target_is_loud(graph_root):
    with pytest.raises(ExperimentError, match="unknown experiment"):
        build_graph(["figure99"], SCALE)
    with pytest.raises(ExperimentError, match="unknown experiment"):
        run_targets(
            ["figure99"], flow_scale=SCALE, cache=_fresh_cache(graph_root)
        )
