"""The hash-table and lexer workloads."""

import pytest

from repro.isa import run_to_completion
from repro.isa.programs import ALL_PROGRAMS, hashtable, lexer


def test_all_programs_registry():
    assert set(ALL_PROGRAMS) == {
        "rle",
        "stackvm",
        "propagate",
        "sort",
        "matmul",
        "hashtable",
        "lexer",
    }


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_hashtable_matches_reference(seed):
    memory = hashtable.make_memory(seed=seed, num_ops=800)
    events, machine = run_to_completion(
        hashtable.build(), memory, max_steps=20_000_000
    )
    assert machine.state.output == hashtable.reference(memory)


def test_hashtable_all_inserts_then_lookups():
    # Insert keys 0..9 then look each up: all found, no probing chains
    # beyond the first slot (keys map to distinct slots).
    ops = [(0, key) for key in range(10)] + [(1, key) for key in range(10)]
    memory = [0] * (hashtable.OP_BASE + 2 * len(ops))
    memory[0] = len(ops)
    for index, (kind, key) in enumerate(ops):
        memory[hashtable.OP_BASE + 2 * index] = kind
        memory[hashtable.OP_BASE + 2 * index + 1] = key
    _, machine = run_to_completion(hashtable.build(), memory)
    found, probes = machine.state.output
    assert found == 10
    assert probes == 20  # one probe per operation


def test_hashtable_lookup_miss():
    ops = [(1, 5)]
    memory = [0] * (hashtable.OP_BASE + 2)
    memory[0] = 1
    memory[hashtable.OP_BASE] = 1
    memory[hashtable.OP_BASE + 1] = 5
    _, machine = run_to_completion(hashtable.build(), memory)
    assert machine.state.output == [0, 1]


@pytest.mark.parametrize("seed", [0, 2, 7])
def test_lexer_matches_reference(seed):
    memory = lexer.make_memory(seed=seed, size=2500)
    events, machine = run_to_completion(
        lexer.build(), memory, max_steps=20_000_000
    )
    assert machine.state.output == lexer.reference(memory)


def test_lexer_hand_built_stream():
    # "ab1 42 , 7x" as classes: 2,2,1,0,1,1,0,3,0,1,2
    classes = [2, 2, 1, 0, 1, 1, 0, 3, 0, 1, 2]
    memory = [len(classes)] + classes
    _, machine = run_to_completion(lexer.build(), memory)
    # Tokens: identifier "ab1", number "42", punct ",", number "7"
    # continuing into... digits then a letter start a new identifier?
    # No: "7x" lexes as number "7" then identifier "x".
    assert machine.state.output == [2, 2, 1]


def test_lexer_empty_input():
    _, machine = run_to_completion(lexer.build(), [0])
    assert machine.state.output == [0, 0, 0]


def test_new_programs_produce_rich_traces():
    from repro.metrics import hot_path_set
    from repro.trace import record_path_trace

    program = hashtable.build()
    memory = hashtable.make_memory(seed=3, num_ops=1200)
    events, _ = run_to_completion(program, memory, max_steps=20_000_000)
    trace = record_path_trace(program.cfg, events, name="hashtable")
    hot = hot_path_set(trace, fraction=0.001)
    # Vortex-like shape: several warm paths rather than one kernel.
    assert trace.num_paths >= 6
    assert hot.num_hot >= 3
