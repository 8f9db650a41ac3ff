"""End-to-end correctness of the bundled ISA programs."""

import pytest

from repro.isa import run_to_completion
from repro.isa.programs import matmul, propagate, rle, sort, stackvm
from repro.isa.programs.stackvm import (
    OP_ADD,
    OP_HALT,
    OP_JNZ,
    OP_LOAD,
    OP_OUT,
    OP_PUSH,
    OP_STORE,
)
from repro.trace.batch import CODE_INDIRECT


def _check(program, memory, expected, max_steps=20_000_000):
    events, machine = run_to_completion(program, memory, max_steps)
    assert machine.state.output == expected
    return events, machine


@pytest.mark.parametrize("seed,size", [(0, 500), (1, 1200), (7, 64)])
def test_rle_matches_reference(seed, size):
    memory = rle.make_memory(seed=seed, size=size)
    _check(rle.build(), memory, rle.reference(memory))


def test_rle_all_equal_input():
    memory = [6, 4, 4, 4, 4, 4, 4]
    _check(rle.build(), memory, [1, 6])


def test_rle_alternating_input():
    memory = [4, 1, 2, 1, 2]
    _check(rle.build(), memory, [4, 4])


@pytest.mark.parametrize("k", [1, 10, 250])
def test_stackvm_sum(k):
    bytecode = stackvm.sum_program(k)
    _check(
        stackvm.build(),
        stackvm.make_memory(bytecode),
        stackvm.reference(bytecode),
    )
    assert stackvm.reference(bytecode) == [k * (k + 1) // 2]


def _fib_program(k: int) -> list[int]:
    """Bytecode computing the k-th Fibonacci number iteratively."""
    code: list[int] = []
    code += [OP_PUSH, 0, OP_STORE, 2]          # a = 0
    code += [OP_PUSH, 1, OP_STORE, 3]          # b = 1
    code += [OP_PUSH, k, OP_STORE, 4]          # i = k
    loop_offset = len(code)
    code += [OP_LOAD, 2, OP_LOAD, 3, OP_ADD, OP_STORE, 5]   # t = a + b
    code += [OP_LOAD, 3, OP_STORE, 2]                        # a = b
    code += [OP_LOAD, 5, OP_STORE, 3]                        # b = t
    code += [OP_LOAD, 4, OP_PUSH, -1, OP_ADD, OP_STORE, 4]   # i -= 1
    code += [OP_LOAD, 4, OP_JNZ, loop_offset]
    code += [OP_LOAD, 2, OP_OUT, OP_HALT]
    return code


@pytest.mark.parametrize("k", [1, 2, 30])
def test_stackvm_fib(k):
    bytecode = _fib_program(k)
    expected = stackvm.reference(bytecode)
    _check(stackvm.build(), stackvm.make_memory(bytecode), expected)


def test_stackvm_uses_indirect_dispatch():
    bytecode = stackvm.sum_program(5)
    events, _ = run_to_completion(
        stackvm.build(), stackvm.make_memory(bytecode)
    )
    assert (events.kind == CODE_INDIRECT).any()


@pytest.mark.parametrize("seed", [0, 3])
def test_propagate_matches_reference(seed):
    memory = propagate.make_memory(seed=seed, sweeps=10)
    _check(propagate.build(), memory, propagate.reference(memory))


def test_propagate_zero_sweeps():
    memory = propagate.make_memory(seed=0, sweeps=0)
    expected = propagate.reference(memory)
    assert expected[0] == 0  # no sweeps, no changes
    _check(propagate.build(), memory, expected)


@pytest.mark.parametrize("seed,size", [(0, 60), (5, 120)])
def test_sort_matches_reference(seed, size):
    memory = sort.make_memory(seed=seed, size=size)
    expected = sort.reference(memory)
    assert expected[1] == 1
    _check(sort.build(), memory, expected)


def test_sort_already_sorted():
    memory = [5, 1, 2, 3, 4, 5]
    _check(sort.build(), memory, [0, 1])


def test_sort_reverse_sorted_is_worst_case():
    memory = [5, 5, 4, 3, 2, 1]
    expected = sort.reference(memory)
    assert expected == [10, 1]  # n(n-1)/2 shifts
    _check(sort.build(), memory, expected)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_matmul_matches_reference(k):
    memory = matmul.make_memory(seed=2, k=k)
    _check(matmul.build(), memory, matmul.reference(memory))


def test_programs_produce_extractable_traces():
    from repro.trace import record_path_trace, summarize

    memory = sort.make_memory(seed=1, size=80)
    program = sort.build()
    events, _ = run_to_completion(program, memory)
    trace = record_path_trace(program.cfg, events, name="sort")
    summary = summarize(trace)
    assert summary.num_paths >= 4
    assert summary.num_unique_heads >= 2
