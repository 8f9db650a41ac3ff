"""The artifact build-graph: incremental, content-addressed repro runs.

The sweep cache (PR 1) already makes a *cell* — one (benchmark, scheme,
τ) sweep point — incremental: recomputing a cached cell is a disk read.
But deciding *whether* a cell is current still required generating its
trace (the digest is a function of trace content), so a warm "rebuild
everything" run paid the full workload-generation bill just to discover
there was nothing to do.  This module closes that gap with a real build
graph in the DynaMake/Shake mold:

* Every figure/table/claims artifact is a **target**; its text rendering
  is a ``render`` node and (for sweep-backed targets) each sweep point
  is a ``cell`` node feeding it.
* A node is keyed by a **Merkle digest** of its inputs: the workload
  *specification* digest (:func:`spec_digest` — the benchmark's declared
  region mix plus the generator version, computable without generating
  anything), the scheme, τ, :data:`~repro.experiments.engine.cache.CODE_VERSION`,
  the target's render version, and the keys of its dependency nodes.
* :class:`GraphState` persists each node's key (and, for cells, the
  sweep-cache address of its result) next to the cache, so *cross-run*
  no-op detection is a JSON read, one key per node, one listing of the
  cache directory and one read per stored render (the text the run
  serves) — the "do nothing fast" property: a warm full-repro run
  costs milliseconds.
* :func:`plan_graph` diffs the current graph against the stored state
  and says, per node, whether it is dirty and **why** (which input
  digest changed) — the substance behind ``repro run --dry-run`` and
  ``--explain``.

Dirtiness rules (exactly these, nothing heuristic):

========  =====================================================
node      dirty when
========  =====================================================
cell      never built · any input digest changed · the recorded
          sweep-cache entry is missing on disk
render    never built · any input digest changed (including a
          dependency cell's key) · the stored render text is
          missing on disk or unreadable
========  =====================================================

Note what is *not* a render-dirtying event: a cell whose cache entry
vanished but whose key is unchanged.  The cell reruns (to restore the
cache) but its content digest — and therefore the render built from it
— is provably unchanged, so the render is served from the store.

The driver that executes a plan lives in
:mod:`repro.experiments.targets`; this module is pure bookkeeping with
no knowledge of how cells are computed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import pathlib
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.engine.cache import atomic_write_text
from repro.experiments.sweep import SweepPoint
from repro.workloads.generator import WorkloadConfig
from repro.workloads.spec import BENCHMARKS

logger = logging.getLogger(__name__)

#: Semantic version of the workload *generator* pipeline, mixed into
#: every spec digest.  Bump whenever a change to the generator (region
#: expansion, scheduling, path models, …) alters the trace a given
#: specification produces; every node downstream of a workload then
#: misses and is recomputed.
GENERATOR_VERSION = "workload-generator-v1"

#: On-disk layout version of the persisted graph state.
STATE_FORMAT = 1


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with
#: the encoder built once instead of on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value) -> str:
    """The one JSON spelling every digest in this module hashes."""
    return _ENCODER.encode(value)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scale_tag(flow_scale: float) -> str:
    """The flow-scale component of a node name (exact, via repr)."""
    return repr(float(flow_scale))


# ----------------------------------------------------------------------
# Input digests
# ----------------------------------------------------------------------

_spec_digest_memo: dict[tuple[str, float], str] = {}


def _asdict_json(value, memo: dict[int, str]) -> str:
    """``canonical_json`` of ``value`` in its :func:`dataclasses.asdict`
    form, built from the JSON of its parts.

    A dataclass, or a list or tuple holding one, is spliced together
    from its parts' texts, and each distinct such object is encoded once
    (``memo`` maps its id to its text): a workload config repeats one
    region spec hundreds of times.  Everything else goes to the stdlib
    encoder whole, leaf containers included, since json sorts int dict
    keys (the phase weights) numerically before spelling them as
    strings.
    """
    text = memo.get(id(value))
    if text is not None:
        return text
    if dataclasses.is_dataclass(value):
        text = _object_json(
            {
                field.name: getattr(value, field.name)
                for field in dataclasses.fields(value)
            },
            memo,
        )
    elif isinstance(value, (list, tuple)) and any(
        dataclasses.is_dataclass(item) for item in value
    ):
        text = "[" + ",".join(_asdict_json(item, memo) for item in value) + "]"
    else:
        return _ENCODER.encode(value)
    memo[id(value)] = text
    return text


def _object_json(fields: dict[str, object], memo: dict[int, str]) -> str:
    """``canonical_json`` of a str-keyed object whose values
    :func:`_asdict_json` encodes."""
    items = (
        f"{_ENCODER.encode(name)}:{_asdict_json(value, memo)}"
        for name, value in sorted(fields.items())
    )
    return "{" + ",".join(items) + "}"


def config_digest(config: WorkloadConfig) -> str:
    """Content digest of an explicit workload configuration."""
    payload = {"generator": GENERATOR_VERSION, "config": config}
    return _sha256(_object_json(payload, {}))


def spec_digest(name: str, flow_scale: float) -> str:
    """Content digest of a benchmark's workload *specification*.

    Hashes the declared group mix (:data:`~repro.workloads.spec.BENCHMARKS`)
    plus the flow scale and :data:`GENERATOR_VERSION` — everything that
    determines the generated trace — **without generating the trace**.
    This is what lets a warm no-op run skip workload generation
    entirely: trace content is identified by its recipe, and recipe
    changes (spec edits, generator version bumps) change the digest.
    """
    key = (name, float(flow_scale))
    memo = _spec_digest_memo.get(key)
    if memo is not None:
        return memo
    try:
        spec = BENCHMARKS[name]
    except KeyError:
        raise ExperimentError(f"unknown benchmark {name!r}") from None
    payload = {
        "generator": GENERATOR_VERSION,
        "benchmark": spec,
        "flow_scale": scale_tag(flow_scale),
    }
    digest = _sha256(_object_json(payload, {}))
    _spec_digest_memo[key] = digest
    return digest


# ----------------------------------------------------------------------
# Nodes and the graph
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphNode:
    """One node: named inputs (digests/values) plus dependency edges.

    ``inputs`` maps an input component name (``workload``, ``scheme``,
    ``delay``, ``code``, ``version``, …) to its digest or literal value;
    the component names are what dirtiness reasons are phrased in.
    ``deps`` names other nodes whose keys feed this node's key.
    """

    name: str
    kind: str  # "cell" | "render"
    inputs: dict[str, str]
    deps: tuple[str, ...] = ()


class ArtifactGraph:
    """A DAG of :class:`GraphNode` with memoized Merkle keys."""

    def __init__(self) -> None:
        self._nodes: dict[str, GraphNode] = {}
        #: node name → (key, ``canonical_json([name, key])``), the text a
        #: dependent's payload splices in.
        self._keys: dict[str, tuple[str, str]] = {}

    def add(self, node: GraphNode) -> GraphNode:
        """Insert ``node`` (idempotent: re-adding an identical node is a
        no-op, so targets can share cells without coordination)."""
        existing = self._nodes.get(node.name)
        if existing is not None:
            if existing != node:
                raise ExperimentError(
                    f"conflicting definitions for graph node {node.name!r}"
                )
            return existing
        for dep in node.deps:
            if dep not in self._nodes:
                raise ExperimentError(
                    f"node {node.name!r} depends on undefined node {dep!r}"
                )
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> GraphNode:
        return self._nodes[name]

    def nodes(self) -> list[GraphNode]:
        """All nodes, dependencies before dependents (insertion order —
        :meth:`add` rejects forward references, so it is topological)."""
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def key(self, name: str) -> str:
        """The node's Merkle key: inputs plus every dependency's key.

        Any change anywhere in a node's input cone — a workload spec, a
        code-version tag, one cell of three hundred — propagates to the
        keys of everything downstream, which is the whole invalidation
        story.
        """
        return self._entry(name)[0]

    def _entry(self, name: str) -> tuple[str, str]:
        entry = self._keys.get(name)
        if entry is None:
            node = self._nodes[name]
            # canonical_json({"kind", "inputs", "deps": [[dep, key], …]}),
            # assembled in its sorted key order from encoded parts.
            deps = ",".join(self._entry(dep)[1] for dep in node.deps)
            digest = _sha256(
                f'{{"deps":[{deps}],"inputs":{canonical_json(node.inputs)},'
                f'"kind":{canonical_json(node.kind)}}}'
            )
            pair = f"[{canonical_json(name)},{canonical_json(digest)}]"
            entry = self._keys[name] = (digest, pair)
        return entry


def cell_node_name(
    benchmark: str, scheme: str, delay: int, flow_scale: float
) -> str:
    """Canonical name of one sweep-cell node."""
    return f"cell:{benchmark}@{scale_tag(flow_scale)}:{scheme}:{delay}"


def render_node_name(target: str, flow_scale: float) -> str:
    """Canonical name of one target's render node."""
    return f"render:{target}@{scale_tag(flow_scale)}"


# ----------------------------------------------------------------------
# Target declarations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpec:
    """Declarative description of one experiment artifact.

    A *sweep* target's data is the engine grid (``benchmarks`` ×
    schemes × delays); its ``render_points`` callable turns the points
    into the artifact text.  A *direct* target computes its text from
    benchmark traces (``build``); ``config_for`` declares an extra
    non-benchmark workload (the phased trace) whose recipe participates
    in the node key.  ``version`` names the semantics of the rendering
    (and of any computation the target performs beyond the shared sweep
    pipeline); bump it to invalidate exactly this target.
    """

    name: str
    version: str
    benchmarks: tuple[str, ...] = ()
    sweep: bool = False
    render_points: (
        Callable[[list[SweepPoint], tuple[int, ...]], str] | None
    ) = None
    build: Callable[[dict, float], str] | None = None
    config_for: Callable[[float], WorkloadConfig] | None = None

    def __post_init__(self) -> None:
        if self.sweep and self.render_points is None:
            raise ExperimentError(
                f"sweep target {self.name!r} needs a render_points callable"
            )
        if not self.sweep and self.build is None:
            raise ExperimentError(
                f"direct target {self.name!r} needs a build callable"
            )


# ----------------------------------------------------------------------
# Persistent state
# ----------------------------------------------------------------------


class GraphState:
    """The per-node build record persisted next to the sweep cache.

    One JSON file maps node name → ``{"key", "inputs", …}`` (cells also
    record the sweep-cache address of their point).  Node names embed
    the flow scale, so smoke-scale and full-scale runs coexist in one
    state file without evicting each other.  Reads are strictly
    best-effort: a missing or corrupt state file plans as "never built"
    — the graph recomputes and rewrites it, never fails on it.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self.nodes: dict[str, dict] = {}
        #: Whether a node was recorded since the state was created or
        #: loaded, i.e. whether :meth:`save` has anything new to write.
        self.modified = False

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "GraphState":
        state = cls(path)
        try:
            raw = state.path.read_bytes()
        except FileNotFoundError:
            return state
        except OSError as error:
            logger.warning(
                "graph state: unreadable %s (%s); planning from scratch",
                state.path,
                error,
            )
            return state
        try:
            payload = json.loads(raw.decode("utf-8"))
            if payload["state_format"] != STATE_FORMAT:
                raise ValueError(
                    f"state format {payload['state_format']!r} != "
                    f"{STATE_FORMAT}"
                )
            nodes = payload["nodes"]
            if not isinstance(nodes, dict):
                raise ValueError("nodes must be an object")
        except (ValueError, KeyError, TypeError) as error:
            state._warn_corrupt(error)
            return state
        # A record that is not an object plans as never built.
        state.nodes = {
            name: record
            for name, record in nodes.items()
            if isinstance(record, dict)
        }
        dropped = len(nodes) - len(state.nodes)
        if dropped:
            state._warn_corrupt(f"{dropped} node record(s) not an object")
        return state

    def _warn_corrupt(self, error) -> None:
        logger.warning(
            "graph state: corrupt %s (%s); planning from scratch",
            self.path,
            error,
        )

    def record(self, name: str, entry: dict) -> None:
        self.nodes[name] = entry
        self.modified = True

    def save(self) -> None:
        """Persist atomically (best-effort; a failed save only costs the
        next run its no-op shortcut, never correctness)."""
        payload = {"state_format": STATE_FORMAT, "nodes": self.nodes}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.path, canonical_json(payload))
        except OSError as error:
            logger.warning(
                "graph state: could not save %s (%s)", self.path, error
            )


class RenderStore:
    """Content-addressed store of rendered artifact texts.

    Keyed by the render node's Merkle key, so a stored text can never be
    served stale: any input change changes the key, which simply misses.
    """

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.txt"

    def get(self, key: str) -> str:
        """The stored text; raises ``OSError`` or ``UnicodeDecodeError``
        when it is missing or unreadable."""
        return self.path_for(key).read_text(encoding="utf-8")

    def put(self, key: str, text: str) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path_for(key), text)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NodeStatus:
    """One node's plan verdict: execute or skip, and why."""

    node: GraphNode
    key: str
    dirty: bool
    reasons: tuple[str, ...] = ()

    def render(self) -> str:
        """One explain/dry-run line."""
        return f"{self.node.name}: {'; '.join(self.reasons)}"


@dataclass
class GraphPlan:
    """The full dirtiness verdict of one graph against its state."""

    statuses: dict[str, NodeStatus] = field(default_factory=dict)
    #: Render node name → stored text, for every clean render: planning
    #: reads it to know it is servable, and the run serves it.
    texts: dict[str, str] = field(default_factory=dict)

    @property
    def dirty_cells(self) -> list[NodeStatus]:
        return [
            status
            for status in self.statuses.values()
            if status.dirty and status.node.kind == "cell"
        ]

    @property
    def dirty_renders(self) -> list[NodeStatus]:
        return [
            status
            for status in self.statuses.values()
            if status.dirty and status.node.kind == "render"
        ]

    @property
    def dirty(self) -> list[NodeStatus]:
        return [s for s in self.statuses.values() if s.dirty]

    @property
    def clean_count(self) -> int:
        return len(self.statuses) - len(self.dirty)

    def summary(self) -> str:
        """The one-line stderr form."""
        return (
            f"graph: {len(self.statuses)} nodes, "
            f"{len(self.dirty)} dirty "
            f"({len(self.dirty_cells)} cells, "
            f"{len(self.dirty_renders)} renders), "
            f"{self.clean_count} clean"
        )

    def explain_lines(self) -> list[str]:
        """One line per dirty node, graph order: exactly what a real run
        would execute, with the input diff that caused it."""
        return [s.render() for s in self.statuses.values() if s.dirty]


def _input_diff_reasons(node: GraphNode, recorded: dict) -> list[str]:
    """Human-readable diff of a node's direct inputs vs its record."""
    reasons = []
    stored = recorded.get("inputs")
    if not isinstance(stored, dict):
        return ["build record unreadable"]
    for name, value in node.inputs.items():
        if name not in stored:
            reasons.append(f"input '{name}' is new")
        elif stored[name] != value:
            reasons.append(f"input '{name}' changed")
    for name in stored:
        if name not in node.inputs:
            reasons.append(f"input '{name}' removed")
    return reasons


def plan_graph(
    graph: ArtifactGraph,
    state: GraphState,
    cache,
    renders: RenderStore,
) -> GraphPlan:
    """Diff ``graph`` against ``state`` and the on-disk stores.

    ``cache`` is the :class:`~repro.experiments.engine.cache.SweepCache`
    holding cell results.  The plan touches no workload and replays
    nothing.  It costs one key per node, one listing of the cache
    directory (a clean cell's entry must be in it) and one read of each
    clean render's stored text, which the run then serves: a render
    that cannot be read or decoded plans dirty and is rebuilt.
    """
    plan = GraphPlan()
    entries = cache.entry_names()
    for node in graph.nodes():
        key = graph.key(node.name)
        recorded = state.nodes.get(node.name)
        reasons: list[str] = []
        if recorded is None:
            reasons.append("never built")
        elif recorded.get("key") != key:
            reasons.extend(_input_diff_reasons(node, recorded))
            changed_deps = sum(
                1
                for dep in node.deps
                if plan.statuses[dep].key
                != state.nodes.get(dep, {}).get("key")
            )
            if changed_deps:
                reasons.append(
                    f"{changed_deps} of {len(node.deps)} input cells changed"
                )
            if not reasons:
                reasons.append("node key changed")
        elif node.kind == "cell":
            cache_address = recorded.get("cache_key")
            if not cache_address:
                reasons.append("no cached result recorded")
            elif cache.entry_name(cache_address) not in entries:
                reasons.append("cache entry missing")
        else:
            try:
                plan.texts[node.name] = renders.get(key)
            except FileNotFoundError:
                reasons.append("stored render missing")
            except (OSError, UnicodeDecodeError):
                reasons.append("stored render unreadable")
        plan.statuses[node.name] = NodeStatus(
            node=node, key=key, dirty=bool(reasons), reasons=tuple(reasons)
        )
    return plan
