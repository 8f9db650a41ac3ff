"""Trace persistence round-trips."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.io import load_trace, save_trace
from repro.trace.path import PathTable
from repro.trace.recorder import PathTrace
from tests.conftest import make_path, signature_bits, signature_from_bits


def _sample_trace():
    table = PathTable()
    a = make_path(table, 0, "101", (0, 1, 2))
    b = make_path(table, 40, "0", (10, 11), ends_backward=False)
    ids = np.array([a, b, a, a, b])
    return PathTrace(table, ids, name="sample")


def test_round_trip(tmp_path):
    trace = _sample_trace()
    file = save_trace(trace, tmp_path / "sample")
    assert file.suffix == ".npz"
    loaded = load_trace(file)
    assert loaded.name == "sample"
    assert np.array_equal(loaded.path_ids, trace.path_ids)
    for pid in range(trace.num_paths):
        original = trace.table.path(pid)
        restored = loaded.table.path(pid)
        assert restored.signature == original.signature
        assert restored.blocks == original.blocks
        assert (
            restored.ends_with_backward_branch
            == original.ends_with_backward_branch
        )


def test_long_histories_round_trip(tmp_path):
    """Signatures longer than 64 bits survive the hex encoding."""
    table = PathTable()
    bits = "10" * 50  # 100-bit history
    pid = table.intern(
        __import__("repro.trace.path", fromlist=["Path"]).Path(
            signature=signature_from_bits(0, bits),
            blocks=tuple(range(5)),
            start_uid=0,
            num_instructions=15,
            num_cond_branches=100,
            num_indirect_branches=0,
        )
    )
    trace = PathTrace(table, [pid] * 3, name="long")
    loaded = load_trace(save_trace(trace, tmp_path / "long"))
    assert signature_bits(loaded.table.path(0).signature) == bits


def test_missing_file(tmp_path):
    with pytest.raises(TraceError):
        load_trace(tmp_path / "nope.npz")


def test_not_a_trace_file(tmp_path):
    bogus = tmp_path / "bogus.npz"
    np.savez(bogus, stuff=np.arange(3))
    with pytest.raises(TraceError):
        load_trace(bogus)


def test_benchmark_trace_round_trip(tmp_path, small_deltablue):
    file = save_trace(small_deltablue, tmp_path / "deltablue")
    loaded = load_trace(file)
    assert loaded.flow == small_deltablue.flow
    assert np.array_equal(loaded.freqs(), small_deltablue.freqs())
    assert loaded.num_dynamic_heads() == small_deltablue.num_dynamic_heads()
