"""Property-based tests: signature register and counter-table laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import CounterTable
from tests.conftest import signature_bits, signature_from_bits
from tests.trace.event_oracle import SignatureRegister

_settings = settings(max_examples=100, deadline=None)


@given(
    start=st.integers(0, 1 << 20),
    bits=st.lists(st.integers(0, 1), max_size=60),
    targets=st.lists(st.integers(0, 1 << 20), max_size=5),
)
@_settings
def test_register_snapshot_round_trips(start, bits, targets):
    register = SignatureRegister(start)
    for bit in bits:
        register.shift(bit)
    for target in targets:
        register.record_indirect(target)
    snapshot = register.snapshot()
    expected = signature_from_bits(
        start, "".join(str(b) for b in bits), tuple(targets)
    )
    assert snapshot == expected
    assert signature_bits(snapshot) == "".join(str(b) for b in bits)


@given(
    a=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    b=st.lists(st.integers(0, 1), min_size=1, max_size=40),
)
@_settings
def test_distinct_bit_strings_distinct_signatures(a, b):
    sig_a = signature_from_bits(0, "".join(map(str, a)))
    sig_b = signature_from_bits(0, "".join(map(str, b)))
    assert (sig_a == sig_b) == (a == b)


@given(
    keys=st.lists(st.integers(0, 30), min_size=0, max_size=300),
)
@_settings
def test_counter_table_totals(keys):
    table = CounterTable()
    for key in keys:
        table.bump(key)
    counts = dict(table.items())
    assert sum(counts.values()) == len(keys)
    assert table.updates == len(keys)
    assert len(counts) == len(set(keys))
    assert table.high_water == len(set(keys))
    for key in set(keys):
        assert counts[key] == keys.count(key)
