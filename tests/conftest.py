"""Shared fixtures for the test-suite.

``fig1_program`` is the paper's Figure 1 loop (blocks A…J simplified to
one diamond pair); ``synthetic_trace`` builds small path traces directly;
``small_benchmark`` materializes a scaled-down calibrated workload once
per session.
"""

from __future__ import annotations

import ast
import signal
import threading

import numpy as np
import pytest

from repro.cfg import ProgramBuilder
from repro.errors import CFGError
from repro.experiments.data import benchmark_traces
from repro.trace import CFGWalker, EventBatch
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace
from repro.workloads import load_benchmark

#: Flow scale the engine/golden tests run the full benchmark set at.
#: Small enough to generate in seconds, shared (via the per-process
#: workload cache) between every test module that uses it.
ENGINE_TEST_SCALE = 0.02


#: Hard per-test ceiling.  A bug in the retry or drain machinery must
#: fail one test, not wedge the whole run until CI's job timeout.
#: Generous on purpose — the slowest legitimate test is well under a
#: minute.
TEST_TIMEOUT_SECONDS = 300


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Abort any single test that runs longer than the hard ceiling.

    SIGALRM-based (no third-party timeout plugin in this environment);
    degrades to a no-op off the main thread or on platforms without
    the signal.
    """
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        pytest.fail(
            f"test exceeded the {TEST_TIMEOUT_SECONDS}s hard timeout",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "rewrite tests/experiments/golden/ files from the current "
            "renders instead of comparing against them"
        ),
    )


@pytest.fixture()
def update_goldens(request) -> bool:
    """Whether this run regenerates golden files instead of checking."""
    return request.config.getoption("--update-goldens")


@pytest.fixture()
def fig1_program():
    """A two-way diamond inside a loop, as in the paper's Figure 1."""
    builder = ProgramBuilder("fig1")
    main = builder.procedure("main")
    main.block("A", size=3).cond(taken="B", fallthrough="C")
    main.block("B", size=2).jump("D")
    main.block("C", size=5).fallthrough("D")
    main.block("D", size=2).cond(taken="A", fallthrough="exit")
    main.block("exit", size=1).halt()
    return builder.build()


@pytest.fixture()
def call_program():
    """main calls helper inside a loop; helper contains its own branch."""
    builder = ProgramBuilder("callprog")
    main = builder.procedure("main")
    main.block("entry", size=2).fallthrough("loop")
    main.block("loop", size=2).call("helper", then="post")
    main.block("post", size=2).cond(taken="loop", fallthrough="done")
    main.block("done", size=1).halt()
    helper = builder.procedure("helper")
    helper.block("h0", size=2).cond(taken="h1", fallthrough="h2")
    helper.block("h1", size=3).fallthrough("h3")
    helper.block("h2", size=4).fallthrough("h3")
    helper.block("h3", size=1).ret()
    return builder.build()


def block_at(program, address: int):
    """The block of ``program`` that starts at ``address``.

    The reference for the address lookups the tests make; raises
    ``CFGError`` when no block starts there.
    """
    for block in program.blocks:
        if block.address == address:
            return block
    raise CFGError(f"no block starts at address {address}")


def target_names(target: ast.expr) -> list[str]:
    """The names an assignment target binds, through tuple and list
    unpacking (``a, (b, *c) = ...`` binds ``a``, ``b`` and ``c``)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return target_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in target_names(elt)]
    return []


def walk_batch(program, oracle, max_events: int | None = None) -> EventBatch:
    """The walker's whole event stream under ``oracle``, as one batch."""
    walker = CFGWalker(program, oracle)
    return EventBatch.concat(list(walker.walk_batched(max_events)))


def signature_from_bits(
    start_address: int, bits: str, indirect_targets: tuple[int, ...] = ()
) -> PathSignature:
    """Build a signature from a ``"0101"``-style bit string."""
    return PathSignature(
        start_address=start_address,
        history=int(bits, 2) if bits else 0,
        bit_count=len(bits),
        indirect_targets=indirect_targets,
    )


def signature_bits(signature: PathSignature) -> str:
    """A signature's outcome bits as a string, oldest branch first: the
    inverse of :func:`signature_from_bits`."""
    if signature.bit_count == 0:
        return ""
    return format(signature.history, f"0{signature.bit_count}b")


def head_sequence(trace: PathTrace) -> np.ndarray:
    """Head block uid of every occurrence of ``trace``, in execution
    order: the reference the head-counting tests compare against."""
    return trace.start_uids()[trace.path_ids]


def make_path(
    table: PathTable,
    start_addr: int,
    bits: str,
    blocks: tuple[int, ...],
    instr_per_block: int = 3,
    ends_backward: bool = True,
) -> int:
    """Intern a synthetic path and return its id."""
    path = Path(
        signature=signature_from_bits(start_addr, bits),
        blocks=blocks,
        start_uid=blocks[0],
        num_instructions=instr_per_block * len(blocks),
        num_cond_branches=max(len(bits), 1),
        num_indirect_branches=0,
        ends_with_backward_branch=ends_backward,
    )
    return table.intern(path)


@pytest.fixture()
def synthetic_trace():
    """Factory: build a PathTrace from (probabilities, size, seed)."""

    def build(
        probabilities: list[float], size: int = 10_000, seed: int = 0
    ) -> PathTrace:
        table = PathTable()
        ids = []
        for index in range(len(probabilities)):
            # Two heads: even paths share head 0, odd paths head 100.
            head = 0 if index % 2 == 0 else 100
            blocks = (head, 1000 + 10 * index, 1001 + 10 * index)
            ids.append(
                make_path(table, head * 4, format(index, "04b"), blocks)
            )
        rng = np.random.default_rng(seed)
        sequence = rng.choice(ids, size=size, p=probabilities)
        return PathTrace(table, sequence, name="synthetic")

    return build


@pytest.fixture(scope="session")
def all_small_traces():
    """All nine benchmark surrogates at the engine test scale."""
    return benchmark_traces(flow_scale=ENGINE_TEST_SCALE)


@pytest.fixture(scope="session")
def small_deltablue():
    """The deltablue surrogate at 5% flow (fast, still structured)."""
    return load_benchmark("deltablue", flow_scale=0.05).trace()


@pytest.fixture(scope="session")
def small_compress():
    """The compress surrogate at 5% flow."""
    return load_benchmark("compress", flow_scale=0.05).trace()
