"""Ball–Larus numbering: bijectivity and chord-sum correctness."""

import pytest

from repro.cfg import (
    generate_program,
    number_procedure,
    number_program,
)
from repro.errors import CFGError
from tests.cfg.ball_larus_oracle import chord_sum, decode, path_id


def test_fig1_num_paths(fig1_program):
    numbering = number_procedure(
        fig1_program, fig1_program.procedures["main"]
    )
    # Forward-path DAG of Figure 1: entry->A, A->{B,C}->D, D->{exit,EXIT},
    # plus the surrogate edges for the back edge D->A.
    # Paths: A-B-D-exit, A-B-D-(exit surrogate), A-C-D-..., = 4 plus the
    # exit block path; exact count is what the decode test pins down.
    assert numbering.num_paths >= 4
    for pid in range(numbering.num_paths):
        sequence = decode(numbering, pid)
        assert path_id(numbering, sequence) == pid
        assert chord_sum(numbering, sequence) == pid


@pytest.mark.parametrize("seed", range(8))
def test_random_programs_numbering_is_bijective(seed):
    program = generate_program(seed=seed, num_procedures=3)
    for name, numbering in number_program(program).items():
        limit = min(numbering.num_paths, 250)
        seen = set()
        for pid in range(limit):
            sequence = decode(numbering, pid)
            assert sequence[0] == numbering.virtual_entry
            assert sequence[-1] == numbering.virtual_exit
            assert path_id(numbering, sequence) == pid, (seed, name)
            assert chord_sum(numbering, sequence) == pid, (seed, name)
            seen.add(tuple(sequence))
        assert len(seen) == limit  # distinct ids decode to distinct paths


def test_chords_are_fewer_than_edges():
    program = generate_program(seed=2, num_procedures=2)
    for numbering in number_program(program).values():
        assert len(numbering.chord_indices) <= len(numbering.edges)


def test_decode_rejects_out_of_range(fig1_program):
    numbering = number_procedure(
        fig1_program, fig1_program.procedures["main"]
    )
    with pytest.raises(CFGError):
        decode(numbering, numbering.num_paths)
    with pytest.raises(CFGError):
        decode(numbering, -1)


def test_path_id_rejects_bad_sequences(fig1_program):
    numbering = number_procedure(
        fig1_program, fig1_program.procedures["main"]
    )
    with pytest.raises(CFGError):
        path_id(numbering, [0, 1])  # neither starts at entry nor ends at exit
