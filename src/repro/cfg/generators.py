"""Seeded random generation of structured control-flow graphs.

The generator builds programs from a tree of structured regions — straight
blocks, if/else diamonds, loops, indirect switches, and calls — then emits
the blocks in layout order so that the only backward branches are loop back
edges.  This gives the workload surrogates and the property-based tests a
supply of realistic CFGs whose loop structure (and therefore path-head
population) is known by construction.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.cfg.builder import ProcedureBuilder, ProgramBuilder
from repro.cfg.program import Program
from repro.errors import CFGError


@dataclass
class GeneratorParams:
    """Knobs controlling the shape of generated procedures.

    The element weights choose what each region slot becomes; depth limits
    stop the recursion.  All sizes are in instruction slots.
    """

    max_depth: int = 3
    min_elements: int = 1
    max_elements: int = 4
    block_size_min: int = 2
    block_size_max: int = 8
    weight_simple: float = 4.0
    weight_diamond: float = 2.0
    weight_loop: float = 1.5
    weight_switch: float = 0.5
    weight_call: float = 0.5
    switch_arms_min: int = 2
    switch_arms_max: int = 4
    #: Procedures the generator may emit calls to (besides generated ones).
    callees: tuple[str, ...] = ()

    def element_kinds(self) -> list[tuple[str, float]]:
        """(kind, weight) pairs for region-element sampling."""
        return [
            ("simple", self.weight_simple),
            ("diamond", self.weight_diamond),
            ("loop", self.weight_loop),
            ("switch", self.weight_switch),
            ("call", self.weight_call),
        ]


# ----------------------------------------------------------------------
# Region tree
# ----------------------------------------------------------------------
@dataclass
class _Region:
    """A sequence of structured elements."""

    elements: list["_Element"] = field(default_factory=list)


@dataclass
class _Element:
    kind: str
    label: str
    size: int = 1
    sub_regions: list[_Region] = field(default_factory=list)
    callee: str | None = None
    latch_label: str | None = None


class _LabelFactory:
    """Deterministic procedure-local label supply."""

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        label = f"{prefix}{self._counter}"
        self._counter += 1
        return label


def _sample_kind(rng: random.Random, params: GeneratorParams, depth: int) -> str:
    kinds = params.element_kinds()
    if depth >= params.max_depth:
        kinds = [(kind, w) for kind, w in kinds if kind in ("simple", "call")]
    if not params.callees:
        kinds = [(kind, w) for kind, w in kinds if kind != "call"]
    total = sum(weight for _, weight in kinds)
    pick = rng.uniform(0.0, total)
    for kind, weight in kinds:
        pick -= weight
        if pick <= 0:
            return kind
    return kinds[-1][0]


def _build_region(
    rng: random.Random,
    params: GeneratorParams,
    labels: _LabelFactory,
    depth: int,
) -> _Region:
    region = _Region()
    count = rng.randint(params.min_elements, params.max_elements)
    for _ in range(count):
        kind = _sample_kind(rng, params, depth)
        size = rng.randint(params.block_size_min, params.block_size_max)
        element = _Element(kind=kind, label=labels.fresh("b"), size=size)
        if kind == "diamond":
            element.sub_regions = [
                _build_region(rng, params, labels, depth + 1),
                _build_region(rng, params, labels, depth + 1),
            ]
        elif kind == "loop":
            element.sub_regions = [_build_region(rng, params, labels, depth + 1)]
            element.latch_label = labels.fresh("latch")
        elif kind == "switch":
            arms = rng.randint(params.switch_arms_min, params.switch_arms_max)
            element.sub_regions = [
                _build_region(rng, params, labels, depth + 1)
                for _ in range(arms)
            ]
        elif kind == "call":
            element.callee = rng.choice(list(params.callees))
        region.elements.append(element)
    return region


# ----------------------------------------------------------------------
# Emission (layout order)
# ----------------------------------------------------------------------
def _entry_label(region: _Region, cont: str) -> str:
    if region.elements:
        return region.elements[0].label
    return cont


def _emit_region(pb: ProcedureBuilder, region: _Region, cont: str) -> None:
    """Emit the blocks of ``region``; control leaves towards ``cont``."""
    elements = region.elements
    for index, element in enumerate(elements):
        next_label = (
            elements[index + 1].label if index + 1 < len(elements) else cont
        )
        _emit_element(pb, element, next_label)


def _emit_element(pb: ProcedureBuilder, element: _Element, cont: str) -> None:
    if element.kind == "simple":
        pb.block(element.label, size=element.size).fallthrough(cont)
    elif element.kind == "call":
        pb.block(element.label, size=element.size).call(
            element.callee, then=cont
        )
    elif element.kind == "diamond":
        then_region, else_region = element.sub_regions
        pb.block(element.label, size=element.size).cond(
            taken=_entry_label(then_region, cont),
            fallthrough=_entry_label(else_region, cont),
        )
        _emit_region(pb, then_region, cont)
        _emit_region(pb, else_region, cont)
    elif element.kind == "loop":
        (body,) = element.sub_regions
        body_entry = _entry_label(body, element.latch_label)
        pb.block(element.label, size=element.size).cond(
            taken=body_entry, fallthrough=cont
        )
        _emit_region(pb, body, element.latch_label)
        pb.block(element.latch_label, size=1).jump(element.label)
    elif element.kind == "switch":
        arm_entries = []
        for arm in element.sub_regions:
            arm_entries.append(_entry_label(arm, cont))
        pb.block(element.label, size=element.size).indirect(*arm_entries)
        for arm in element.sub_regions:
            _emit_region(pb, arm, cont)
    else:  # pragma: no cover - _build_region only produces known kinds
        raise CFGError(f"unknown element kind {element.kind!r}")


def generate_procedure(
    pb: ProcedureBuilder,
    rng: random.Random,
    params: GeneratorParams,
    terminal: str = "ret",
) -> None:
    """Fill ``pb`` with a random structured body.

    ``terminal`` selects the final block's terminator: ``"ret"`` for a
    callable procedure, ``"halt"`` for a program entry.
    """
    labels = _LabelFactory()
    region = _build_region(rng, params, labels, depth=0)
    exit_label = labels.fresh("exit")
    _emit_region(pb, region, exit_label)
    final = pb.block(exit_label, size=1)
    if terminal == "ret":
        final.ret()
    elif terminal == "halt":
        final.halt()
    else:
        raise CFGError(f"unknown terminal kind {terminal!r}")


def generate_program(
    seed: int,
    num_procedures: int = 3,
    params: GeneratorParams | None = None,
) -> Program:
    """Generate a whole program with ``num_procedures`` procedures.

    ``main`` may call the helper procedures (``proc1`` … ``procN``);
    helpers may call later helpers, keeping the call graph acyclic so
    generated programs always terminate under bounded loop oracles.
    """
    rng = random.Random(seed)
    base = params or GeneratorParams()
    builder = ProgramBuilder(name="generated")

    helper_names = [f"proc{i}" for i in range(1, num_procedures)]
    for index in range(num_procedures - 1, -1, -1):
        proc_name = "main" if index == 0 else helper_names[index - 1]
        callable_helpers = tuple(helper_names[index:]) if index else tuple(
            helper_names
        )
        proc_params = dataclasses.replace(base, callees=callable_helpers)
        generate_procedure(
            builder.procedure(proc_name),
            rng,
            proc_params,
            terminal="halt" if proc_name == "main" else "ret",
        )
    return builder.build()
