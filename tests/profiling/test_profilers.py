"""Profiling schemes: equivalences, costs, edge cases."""

import pytest

from repro.cfg import generate_program, number_program, procedure_loops
from repro.profiling import (
    BallLarusProfiler,
    BitTracingProfiler,
    BlockProfiler,
    EdgeProfiler,
    KBoundedPathProfiler,
    compare_schemes,
)
from repro.trace import RandomOracle, TripCountOracle, record_path_trace
from tests.cfg.ball_larus_oracle import decode_blocks
from tests.conftest import walk_batch
from tests.trace.event_oracle import ScriptedOracle


def _events(seed=11, trips=12, max_events=500_000):
    program = generate_program(seed=seed, num_procedures=3)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = trips
    oracle = TripCountOracle(RandomOracle(3, default_bias=0.5), trip_counts)
    return program, walk_batch(program, oracle, max_events)


@pytest.mark.parametrize("seed", [11, 12, 14])
def test_bit_tracing_agrees_with_extractor(seed):
    program, events = _events(seed=seed)
    trace = record_path_trace(program, events)
    report = BitTracingProfiler(program).run(events)
    freqs = trace.freqs()
    by_signature = {
        path.signature: int(freqs[i])
        for i, path in enumerate(trace.table)
    }
    assert by_signature == report.frequencies


def test_bit_tracing_counts_every_branch(fig1_program):
    decisions = [True, True, False, False]
    events = walk_batch(fig1_program, ScriptedOracle(decisions), 100)
    report = BitTracingProfiler(fig1_program).run(events)
    # 4 conditional outcomes shifted + one table update per path (2 paths).
    assert report.profiling_ops == 4 + 2


def test_ball_larus_total_flow_matches_path_ends(seed=11):
    program, events = _events(seed=seed)
    report = BallLarusProfiler(program).run(events)
    # Every count is positive and decodable.
    numberings = number_program(program)
    for key, count in report.frequencies.items():
        assert count > 0
        blocks = decode_blocks(numberings, key)
        proc = program.procedures[key[0]]
        local_uids = {b.uid for b in proc.blocks}
        assert all(uid in local_uids for uid in blocks)


def test_ball_larus_static_space_upper_bounds_dynamic():
    program, events = _events(seed=12)
    report = BallLarusProfiler(program).run(events)
    static_space = sum(n.num_paths for n in number_program(program).values())
    assert report.counter_space <= static_space


def test_ball_larus_fewer_ops_than_bit_tracing():
    """Spanning-tree placement instruments only chords."""
    program, events = _events(seed=11)
    bl = BallLarusProfiler(program).run(events)
    bt = BitTracingProfiler(program).run(events)
    assert bl.profiling_ops < bt.profiling_ops


def test_kbounded_window_semantics(fig1_program):
    decisions = [True, True, True, True, False, False]
    events = walk_batch(fig1_program, ScriptedOracle(decisions), 100)
    report = KBoundedPathProfiler(k=2).run(events)
    # Windows slide per branch: total counted windows = branches - k + 1
    # (no call/return resets in fig1; halt event is skipped).
    branch_events = int((events.dst != -1).sum())
    assert sum(report.frequencies.values()) == branch_events - 2 + 1


def test_kbounded_resets_on_calls(call_program):
    events = walk_batch(call_program, ScriptedOracle([True, False]), 100)
    intra = KBoundedPathProfiler(k=3, intraprocedural=True).run(events)
    inter = KBoundedPathProfiler(k=3, intraprocedural=False).run(events)
    assert sum(inter.frequencies.values()) >= sum(intra.frequencies.values())


def test_kbounded_rejects_bad_k():
    with pytest.raises(ValueError):
        KBoundedPathProfiler(k=0)


def test_edge_profiler_counts_transfers(fig1_program):
    decisions = [True, True, False, False]
    events = walk_batch(fig1_program, ScriptedOracle(decisions), 100)
    report = EdgeProfiler().run(events)
    assert sum(report.frequencies.values()) == len(events) - 1  # halt skipped
    main = fig1_program.procedures["main"]
    d_to_a = (main.block("D").uid, main.block("A").uid)
    assert report.frequencies[d_to_a] == 1


def test_block_profiler_counts_entries(fig1_program):
    decisions = [True, True, False, False]
    events = walk_batch(fig1_program, ScriptedOracle(decisions), 100)
    report = BlockProfiler(
        entry_uid=fig1_program.entry_block.uid
    ).run(events)
    main = fig1_program.procedures["main"]
    assert report.frequencies[main.block("A").uid] == 2


def test_head_counter_space_is_smallest():
    program, events = _events(seed=11)
    rows = {row.scheme: row for row in compare_schemes(program, events)}
    assert rows["net-heads"].counter_space <= min(
        row.counter_space
        for name, row in rows.items()
        if name != "net-heads"
    )
    assert rows["net-heads"].profiling_ops <= rows["bit-tracing"].profiling_ops


def test_counter_table_accounting():
    from repro.profiling import CounterTable

    table = CounterTable()
    table.bump("a")
    table.bump("a")
    table.bump("b")
    assert dict(table.items()) == {"a": 2, "b": 1}
    assert table.updates == 3
    assert table.high_water == 2
