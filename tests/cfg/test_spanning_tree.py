"""Ball–Larus numbering: bijectivity and chord-sum correctness."""

import pytest

from repro.cfg import (
    generate_program,
    number_procedure,
    number_program,
)
from repro.errors import CFGError


def test_fig1_num_paths(fig1_program):
    numbering = number_procedure(
        fig1_program, fig1_program.procedures["main"]
    )
    # Forward-path DAG of Figure 1: entry->A, A->{B,C}->D, D->{exit,EXIT},
    # plus the surrogate edges for the back edge D->A.
    # Paths: A-B-D-exit, A-B-D-(exit surrogate), A-C-D-..., = 4 plus the
    # exit block path; exact count is what the decode test pins down.
    assert numbering.num_paths >= 4
    for path_id in range(numbering.num_paths):
        sequence = numbering.decode(path_id)
        assert numbering.path_id(sequence) == path_id
        assert numbering.chord_sum(sequence) == path_id


@pytest.mark.parametrize("seed", range(8))
def test_random_programs_numbering_is_bijective(seed):
    program = generate_program(seed=seed, num_procedures=3)
    for name, numbering in number_program(program).items():
        limit = min(numbering.num_paths, 250)
        seen = set()
        for path_id in range(limit):
            sequence = numbering.decode(path_id)
            assert sequence[0] == numbering.virtual_entry
            assert sequence[-1] == numbering.virtual_exit
            assert numbering.path_id(sequence) == path_id, (seed, name)
            assert numbering.chord_sum(sequence) == path_id, (seed, name)
            seen.add(tuple(sequence))
        assert len(seen) == limit  # distinct ids decode to distinct paths


def test_chords_are_fewer_than_edges():
    program = generate_program(seed=2, num_procedures=2)
    for numbering in number_program(program).values():
        assert numbering.num_instrumented_edges <= numbering.num_edges


def test_decode_rejects_out_of_range(fig1_program):
    numbering = number_procedure(
        fig1_program, fig1_program.procedures["main"]
    )
    with pytest.raises(CFGError):
        numbering.decode(numbering.num_paths)
    with pytest.raises(CFGError):
        numbering.decode(-1)


def test_path_id_rejects_bad_sequences(fig1_program):
    numbering = number_procedure(
        fig1_program, fig1_program.procedures["main"]
    )
    with pytest.raises(CFGError):
        numbering.path_id([0, 1])  # neither starts at entry nor ends at exit
