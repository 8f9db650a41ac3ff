"""Property-based tests: Ball–Larus numbering on random programs."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfg import (
    GeneratorParams,
    dominator_back_edges,
    generate_program,
    intraprocedural_successors,
    number_program,
)
from repro.isa.programs import ALL_PROGRAMS
from tests.cfg.ball_larus_oracle import chord_sum, decode, path_id

_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=st.integers(0, 500))
@_settings
def test_numbering_bijective_and_chords_consistent(seed):
    params = GeneratorParams(max_depth=2, max_elements=3)
    program = generate_program(seed=seed, num_procedures=2, params=params)
    for name, numbering in number_program(program).items():
        assert numbering.num_paths >= 1
        limit = min(numbering.num_paths, 100)
        decoded = set()
        for pid in range(limit):
            sequence = decode(numbering, pid)
            assert path_id(numbering, sequence) == pid, (seed, name)
            assert chord_sum(numbering, sequence) == pid, (seed, name)
            decoded.add(tuple(sequence))
        assert len(decoded) == limit


@given(seed=st.integers(0, 500))
@_settings
def test_chord_count_at_most_edges_minus_tree(seed):
    """|chords| == |edges| − (spanning tree edges over DAG vertices)."""
    params = GeneratorParams(max_depth=2, max_elements=3)
    program = generate_program(seed=seed, num_procedures=2, params=params)
    for numbering in number_program(program).values():
        vertices = set()
        for edge in numbering.edges:
            vertices.add(edge.src)
            vertices.add(edge.dst)
        vertices.add(numbering.virtual_entry)
        vertices.add(numbering.virtual_exit)
        # Tree over V vertices has V−1 edges, one of which is the forced
        # virtual exit→entry edge, so chords = E − (V − 2).
        expected_chords = len(numbering.edges) - (len(vertices) - 2)
        assert len(numbering.chord_indices) == expected_chords


def _charged_entry_chords(program):
    """``(procedure, target, increment)`` for every chord out of a
    virtual entry that a path restart would have to charge: one with a
    nonzero increment, or one into a block a back edge re-enters."""
    charged = []
    for name, numbering in number_program(program).items():
        proc = program.procedures[name]
        successors = intraprocedural_successors(program, proc)
        back_edges = dominator_back_edges(proc.entry.uid, successors)
        heads = {head for _, head in back_edges}
        chords = set(numbering.chord_indices)
        for edge in numbering.edges:
            if edge.index in chords and edge.src == numbering.virtual_entry:
                increment = numbering.increments[edge.index]
                if increment or edge.dst in heads:
                    charged.append((name, edge.dst, increment))
    return charged


@given(
    seed=st.integers(0, 10_000),
    num_procedures=st.integers(1, 4),
    small=st.booleans(),
)
@_settings
def test_chords_out_of_entry_charge_nothing(seed, num_procedures, small):
    """``BallLarusProfiler.observe_batch`` starts the path after a
    backward branch with no ENTRY→target term.  That is exact because
    the tree weighs an edge by ``N(src)·N(dst)``: at a loop head H,
    ENTRY→H outweighs every other edge (ENTRY has at least two
    successors, so ``N(ENTRY) > N(P)`` for every predecessor P), and
    Kruskal's algorithm adds it while H is still alone.  The only chords
    out of ENTRY are ENTRY→entry edges of single-path procedures, whose
    increment is 0 and which no back edge re-enters."""
    params = GeneratorParams(max_depth=2, max_elements=3) if small else None
    program = generate_program(
        seed=seed, num_procedures=num_procedures, params=params
    )
    assert _charged_entry_chords(program) == []


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_isa_chords_out_of_entry_charge_nothing(name):
    assert _charged_entry_chords(ALL_PROGRAMS[name].build().cfg) == []
