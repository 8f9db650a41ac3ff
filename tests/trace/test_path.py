"""Path signatures, the shift register and the interning table."""

import sys
import threading

import pytest

from repro.errors import TraceError
from repro.trace.path import Path, PathSignature, PathTable
from tests.conftest import signature_bits, signature_from_bits
from tests.trace.event_oracle import SignatureRegister


def test_signature_from_bits_round_trip():
    signature = signature_from_bits(12, "0101")
    assert signature.history == 0b0101
    assert signature.bit_count == 4
    assert signature_bits(signature) == "0101"


def test_signature_preserves_leading_zeros():
    a = signature_from_bits(0, "001")
    b = signature_from_bits(0, "01")
    assert a != b
    assert signature_bits(a) == "001" and signature_bits(b) == "01"


def test_signature_rejects_overflowing_history():
    with pytest.raises(TraceError):
        PathSignature(start_address=0, history=4, bit_count=2)
    with pytest.raises(TraceError):
        PathSignature(start_address=0, history=1, bit_count=0)


def test_register_builds_signature_like_the_paper():
    register = SignatureRegister(start_address=0)
    for bit in (0, 1, 0, 1):
        register.shift(bit)
    register.record_indirect(99)
    snapshot = register.snapshot()
    assert snapshot == signature_from_bits(0, "0101", (99,))


def test_register_rejects_non_bits():
    register = SignatureRegister(0)
    with pytest.raises(TraceError):
        register.shift(2)


def test_path_requires_blocks_and_consistent_head():
    signature = signature_from_bits(0, "1")
    with pytest.raises(TraceError):
        Path(
            signature=signature,
            blocks=(),
            start_uid=0,
            num_instructions=1,
            num_cond_branches=1,
            num_indirect_branches=0,
        )
    with pytest.raises(TraceError):
        Path(
            signature=signature,
            blocks=(1, 2),
            start_uid=9,
            num_instructions=1,
            num_cond_branches=1,
            num_indirect_branches=0,
        )


def test_path_head_and_tail():
    signature = signature_from_bits(0, "1")
    path = Path(
        signature=signature,
        blocks=(5, 6, 7),
        start_uid=5,
        num_instructions=9,
        num_cond_branches=1,
        num_indirect_branches=0,
    )
    assert path.num_blocks == 3


def test_table_interns_by_signature():
    table = PathTable()
    signature = signature_from_bits(0, "10")

    def build():
        return Path(
            signature=signature,
            blocks=(1, 2),
            start_uid=1,
            num_instructions=4,
            num_cond_branches=2,
            num_indirect_branches=0,
        )

    first = table.intern(build())
    second = table.intern(build())
    assert first == second
    assert len(table) == 1
    assert table.lookup(signature) == first
    assert table.path(first).blocks == (1, 2)


def test_table_lookup_missing_and_bad_id():
    table = PathTable()
    assert table.lookup(signature_from_bits(0, "1")) is None
    with pytest.raises(TraceError):
        table.path(0)


def _append_two(table: PathTable, **changes):
    rows = {
        "start_address": [0, 40],
        "history": [1, 0],
        "bit_count": [1, 1],
        "block_counts": [2, 3],
        "blocks": [0, 1, 10, 11, 12],
        "num_instructions": [6, 9],
        "num_cond_branches": 1,
        "ends_backward": [True, False],
    }
    rows.update(changes)
    return table.append_rows(**rows)


def test_appended_rows_materialize_as_paths():
    table = PathTable()
    assert _append_two(table).tolist() == [0, 1]
    assert table.path(1) == Path(
        signature=signature_from_bits(40, "0"),
        blocks=(10, 11, 12),
        start_uid=10,
        num_instructions=9,
        num_cond_branches=1,
        num_indirect_branches=0,
        ends_with_backward_branch=False,
    )
    assert table.path(1) is table.path(1)
    assert table.lookup(signature_from_bits(0, "1")) == 0
    columns = table.static_columns()
    assert columns["start_uids"].tolist() == [0, 10]
    with pytest.raises(ValueError):
        columns["instr"][0] = 1  # the table's columns are read-only


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"block_counts": [0, 5]}, "at least one block"),
        ({"blocks": [0, 1, 10]}, "blocks given"),
        ({"history": [2, 0]}, "does not fit"),
        ({"history": [-1, 0]}, "non-negative"),
        ({"bit_count": [65, 1]}, "bit counts"),
        ({"start_address": 0, "history": 1}, "repeat a path signature"),
    ],
)
def test_append_rows_applies_the_path_checks(changes, message):
    table = PathTable()
    with pytest.raises(TraceError, match=message):
        _append_two(table, **changes)
    assert len(table) == 0


@pytest.mark.parametrize("indirect_targets", [(), (8,)])
def test_append_rows_rejects_a_signature_already_interned(indirect_targets):
    table = PathTable()
    table.intern(
        Path(
            signature=signature_from_bits(40, "0", indirect_targets),
            blocks=(10,),
            start_uid=10,
            num_instructions=3,
            num_cond_branches=1,
            num_indirect_branches=len(indirect_targets),
        )
    )
    if indirect_targets:  # a different signature: the rows are new
        assert _append_two(table).tolist() == [1, 2]
        return
    with pytest.raises(TraceError, match="repeat a path signature"):
        _append_two(table)
    assert len(table) == 1


def test_interned_and_appended_rows_share_one_id_space():
    table = PathTable()
    wide = signature_from_bits(8, "1" + "0" * 99, indirect_targets=(4,))
    interned = Path(
        signature=wide,
        blocks=(5, 6),
        start_uid=5,
        num_instructions=6,
        num_cond_branches=100,
        num_indirect_branches=1,
    )
    assert table.intern(interned) == 0
    assert table.path(0) is interned  # intern keeps the path it is given
    assert _append_two(table).tolist() == [1, 2]
    assert table.intern(table.path(2)) == 2
    assert table.static_columns()["start_uids"].tolist() == [5, 0, 10]


def test_racing_first_reads_store_each_interned_row_once():
    """Threads reading a freshly interned table at once all see every
    row exactly once (the first read stores the interned rows)."""
    readers, rows = 8, 300
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            table = PathTable()
            for uid in range(rows):
                table.intern(
                    Path(
                        signature=signature_from_bits(4 * uid, "1"),
                        blocks=(uid,),
                        start_uid=uid,
                        num_instructions=3,
                        num_cond_branches=1,
                        num_indirect_branches=0,
                    )
                )
            barrier = threading.Barrier(readers)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append(table.static_columns()["start_uids"].tolist())

            threads = [
                threading.Thread(target=read, daemon=True)
                for _ in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [list(range(rows))] * readers
    finally:
        sys.setswitchinterval(previous)
