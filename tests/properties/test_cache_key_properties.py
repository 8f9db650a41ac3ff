"""Property-based tests: sweep-cache key and digest laws.

The cache is only sound if the key is a faithful content address: equal
inputs always digest equally (stability), any differing input —
trace content, scheme, τ, code version — changes the key (sensitivity),
and a stored point survives the write/read round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.engine import (
    CODE_VERSION,
    SweepCache,
    cache_key,
    trace_digest,
)
from repro.experiments.sweep import SweepPoint
from repro.trace.io import load_trace, save_trace
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace

_settings = settings(max_examples=60, deadline=None)


def _build_trace(
    name: str, num_paths: int, sequence: list[int], start_base: int = 0
) -> PathTrace:
    """A tiny deterministic trace with ``num_paths`` distinct paths."""
    table = PathTable()
    for index in range(num_paths):
        table.intern(
            Path(
                signature=PathSignature.from_bits(
                    start_base + index * 4, format(index, "04b")
                ),
                blocks=(index, 100 + index),
                start_uid=index,
                num_instructions=3 + index,
                num_cond_branches=1,
                num_indirect_branches=0,
                ends_with_backward_branch=True,
            )
        )
    ids = np.asarray([s % num_paths for s in sequence], dtype=np.int64)
    return PathTrace(table, ids, name=name)


trace_inputs = st.tuples(
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 8),
    st.lists(st.integers(0, 1_000), min_size=0, max_size=50),
)


@given(inputs=trace_inputs)
@_settings
def test_digest_stable_across_rebuilds(inputs):
    name, num_paths, sequence = inputs
    first = _build_trace(name, num_paths, sequence)
    second = _build_trace(name, num_paths, sequence)
    assert trace_digest(first) == trace_digest(second)


@given(inputs=trace_inputs, other=trace_inputs)
@_settings
def test_digest_differs_when_content_differs(inputs, other):
    a = _build_trace(*inputs)
    b = _build_trace(*other)
    same_content = (
        inputs[0] == other[0]
        and inputs[1] == other[1]
        and a.path_ids.tolist() == b.path_ids.tolist()
    )
    assert (trace_digest(a) == trace_digest(b)) == same_content


@given(inputs=trace_inputs)
@_settings
def test_digest_independent_of_byte_order(inputs):
    """The digest is a property of values, not of host byte order.

    The constructor canonicalizes ``path_ids`` to the native int64, so
    the foreign-order array is planted directly — the in-memory shape a
    trace would have on an opposite-endian host.  Hashing raw
    ``tobytes()`` (the old behavior) digests these differently.
    """
    name, num_paths, sequence = inputs
    native = _build_trace(name, num_paths, sequence)
    foreign = _build_trace(name, num_paths, sequence)
    swapped = foreign.path_ids.astype(
        np.dtype(np.int64).newbyteorder()
    )
    assert swapped.dtype.byteorder != native.path_ids.dtype.byteorder
    foreign.path_ids = swapped
    assert trace_digest(foreign) == trace_digest(native)


@given(inputs=trace_inputs)
@_settings
def test_digest_independent_of_dtype_spelling(inputs):
    """Equal values in a narrower integer dtype digest equally too."""
    name, num_paths, sequence = inputs
    native = _build_trace(name, num_paths, sequence)
    narrow = _build_trace(name, num_paths, sequence)
    narrow.path_ids = narrow.path_ids.astype(np.int32)
    assert trace_digest(narrow) == trace_digest(native)


@given(inputs=trace_inputs)
@_settings
def test_digest_sensitive_to_name_and_sequence(inputs):
    name, num_paths, sequence = inputs
    base = _build_trace(name, num_paths, sequence)
    renamed = _build_trace(name + "'", num_paths, sequence)
    assert trace_digest(base) != trace_digest(renamed)
    extended = _build_trace(name, num_paths, sequence + [0])
    assert trace_digest(base) != trace_digest(extended)


# One path row: (start address, (bit count, history), blocks,
# instructions, conditional branches, ends backward).  Rows are unique
# by signature, as a table's rows must be.
path_rows = st.lists(
    st.tuples(
        st.integers(0, 2**40),
        st.integers(0, 64).flatmap(
            lambda bits: st.tuples(st.just(bits), st.integers(0, 2**bits - 1))
        ),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
        st.integers(0, 10_000),
        st.integers(0, 64),
        st.booleans(),
    ),
    max_size=12,
    unique_by=lambda row: (row[0], row[1]),
)


def _interned(rows) -> PathTable:
    table = PathTable()
    for address, (bits, history), blocks, instr, cond, ends in rows:
        table.intern(
            Path(
                signature=PathSignature(address, history, bits),
                blocks=tuple(blocks),
                start_uid=blocks[0],
                num_instructions=instr,
                num_cond_branches=cond,
                num_indirect_branches=0,
                ends_with_backward_branch=ends,
            )
        )
    return table


def _bulk(rows) -> PathTable:
    table = PathTable()
    table.append_rows(
        start_address=[row[0] for row in rows],
        history=np.array([row[1][1] for row in rows], dtype=np.uint64),
        bit_count=[row[1][0] for row in rows],
        block_counts=[len(row[2]) for row in rows],
        blocks=[block for row in rows for block in row[2]],
        num_instructions=[row[3] for row in rows],
        num_cond_branches=[row[4] for row in rows],
        ends_backward=[row[5] for row in rows],
    )
    return table


@given(rows=path_rows, name=st.text(min_size=1, max_size=8), seed=st.integers())
@_settings
def test_digest_independent_of_how_the_table_was_built(rows, name, seed):
    """Bulk rows, interned paths and a save/load round trip of either
    are the same content, so they digest equally."""
    ids = np.random.default_rng(seed % 2**32).integers(
        0, max(len(rows), 1), size=20 if rows else 0
    )
    bulk = PathTrace(_bulk(rows), ids, name=name)
    interned = PathTrace(_interned(rows), ids, name=name)
    assert list(bulk.table) == list(interned.table)
    expected = trace_digest(interned)
    assert trace_digest(bulk) == expected
    with tempfile.TemporaryDirectory() as root:
        loaded = load_trace(save_trace(bulk, f"{root}/trace"))
    assert trace_digest(loaded) == expected


def _sensitivity_paths() -> list[Path]:
    """Paths covering every attribute the digest must see, including a
    history wider than 64 bits and indirect targets."""
    wide = (1 << 99) | 0b1011
    return [
        Path(
            signature=PathSignature(0, 0b101, 3),
            blocks=(0, 1, 2),
            start_uid=0,
            num_instructions=9,
            num_cond_branches=3,
            num_indirect_branches=0,
        ),
        Path(
            signature=PathSignature(40, wide, 100, indirect_targets=(8, 12)),
            blocks=(10, 11, 12, 13),
            start_uid=10,
            num_instructions=12,
            num_cond_branches=100,
            num_indirect_branches=2,
            ends_with_backward_branch=False,
        ),
    ]


def _replace_signature(path: Path, **changes) -> Path:
    return dataclasses.replace(
        path, signature=dataclasses.replace(path.signature, **changes)
    )


FIELD_CHANGES = {
    "wide history": lambda p: _replace_signature(
        p, history=p.signature.history ^ (1 << 80)
    ),
    "indirect target": lambda p: _replace_signature(
        p, indirect_targets=(8, 16)
    ),
    "block": lambda p: dataclasses.replace(p, blocks=(10, 11, 14, 13)),
    "ends_backward": lambda p: dataclasses.replace(
        p, ends_with_backward_branch=True
    ),
    "num_instructions": lambda p: dataclasses.replace(
        p, num_instructions=13
    ),
}


@pytest.mark.parametrize("change", FIELD_CHANGES.values(), ids=FIELD_CHANGES)
def test_digest_sensitive_to_every_path_field(change):
    def digest(paths: list[Path]) -> str:
        table = PathTable()
        for path in paths:
            table.intern(path)
        return trace_digest(PathTrace(table, [0, 1, 1], name="fields"))

    paths = _sensitivity_paths()
    assert digest(paths) == digest(_sensitivity_paths())
    assert digest([paths[0], change(paths[1])]) != digest(paths)


@given(
    digest=st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
    scheme=st.sampled_from(["net", "path-profile"]),
    delay=st.integers(1, 1_000_000),
    other_scheme=st.sampled_from(["net", "path-profile"]),
    other_delay=st.integers(1, 1_000_000),
)
@_settings
def test_key_distinct_exactly_when_cell_differs(
    digest, scheme, delay, other_scheme, other_delay
):
    key = cache_key(digest, scheme, delay)
    other = cache_key(digest, other_scheme, other_delay)
    assert (key == other) == (scheme == other_scheme and delay == other_delay)
    # Same cell under a bumped code version is a different address.
    assert key != cache_key(digest, scheme, delay, version=CODE_VERSION + "!")
    # Keys are themselves stable.
    assert key == cache_key(digest, scheme, delay)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    point=st.builds(
        SweepPoint,
        benchmark=st.text(min_size=1, max_size=16),
        scheme=st.sampled_from(["net", "path-profile"]),
        delay=st.integers(0, 10**9),
        profiled_flow_percent=finite,
        hit_rate=finite,
        noise_rate=finite,
        num_predicted=st.integers(0, 2**50),
        num_predicted_hot=st.integers(0, 2**50),
    )
)
@_settings
def test_point_survives_cache_round_trip(point):
    with tempfile.TemporaryDirectory() as root:
        cache = SweepCache(root)
        key = cache_key("0" * 64, point.scheme, point.delay)
        cache.put(key, point)
        # A fresh cache instance over the same directory reads it back
        # bit-exactly (floats included).
        assert SweepCache(root).get(key) == point
