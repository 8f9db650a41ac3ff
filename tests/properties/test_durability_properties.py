"""Property: crash recovery is invisible at ANY cadence and kill point.

Hypothesis picks the checkpoint cadence (1..8 batches per snapshot),
the global kill step, and how many tenants share the schedule.  The
durable server is killed cold at that step (no drain, no flush beyond
the WAL's own appends), restored, and each client re-sends from
``expected_seq``.  The property: every tenant's final
:class:`TenantReport` — predictions, prediction times, counter space,
ingest totals and the full selection log — is byte-identical to an
uninterrupted in-memory run of the same schedule.  This is the
recovery theorem the chaos harness spot-checks, quantified.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import PredictionServer, ServerConfig
from repro.serving.loadgen import build_stream

DELAY = 5

#: Small, loopy corpus shared across examples (built once at import).
_CORPUS = [
    build_stream(seed=seed, events=600, batch_events=64, trips=8)
    for seed in (11, 14, 17)
]


def _report_fingerprint(report):
    return (
        report.outcome.predicted_ids.tobytes(),
        report.outcome.prediction_times.tobytes(),
        report.outcome.counter_space,
        report.events_ingested,
        report.batches_ingested,
        tuple(
            (s.path_id, s.time, s.head_uid, s.blocks, s.num_instructions)
            for s in report.selections
        ),
    )


def _schedule(num_tenants):
    tenants = {
        f"t{index}": _CORPUS[index % len(_CORPUS)]
        for index in range(num_tenants)
    }
    longest = max(len(stream.payloads) for stream in tenants.values())
    return tenants, [
        (tenant_id, seq)
        for seq in range(longest)
        for tenant_id, stream in tenants.items()
        if seq < len(stream.payloads)
    ]


def _baseline(tenants, schedule):
    server = PredictionServer(ServerConfig(num_shards=2, delay=DELAY))
    for tenant_id, stream in tenants.items():
        server.open_tenant(tenant_id, stream.program)
    for tenant_id, seq in schedule:
        server.ingest(tenant_id, tenants[tenant_id].payloads[seq], seq=seq)
    return {
        tenant_id: _report_fingerprint(server.close_tenant(tenant_id))
        for tenant_id in tenants
    }


@settings(max_examples=12, deadline=None)
@given(
    num_tenants=st.integers(min_value=1, max_value=3),
    cadence=st.integers(min_value=1, max_value=8),
    kill_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_any_cadence_any_kill_point_recovers_identically(
    tmp_path_factory, num_tenants, cadence, kill_fraction
):
    tenants, schedule = _schedule(num_tenants)
    baseline = _baseline(tenants, schedule)
    kill_at = int(kill_fraction * len(schedule))

    state_dir = tmp_path_factory.mktemp("state")
    config = ServerConfig(
        num_shards=2, delay=DELAY, checkpoint_interval_batches=cadence
    )
    server = PredictionServer(config, state_dir=state_dir)
    for tenant_id, stream in tenants.items():
        server.open_tenant(
            tenant_id, stream.program, program_name=stream.name
        )
    cursors = dict.fromkeys(tenants, 0)
    for tenant_id, seq in schedule[:kill_at]:
        server.ingest(tenant_id, tenants[tenant_id].payloads[seq], seq=seq)
        cursors[tenant_id] = seq + 1
    server.close()  # cold kill: no drain, no final checkpoints

    programs = {stream.name: stream.program for stream in tenants.values()}
    server = PredictionServer.restore(state_dir, programs, config=config)
    for tenant_id in tenants:
        resume = server.expected_seq(tenant_id)
        # Recovery never rewinds past the last snapshot's cadence
        # window and never claims batches the client hasn't sent.
        assert cursors[tenant_id] - cadence <= resume <= cursors[tenant_id]
        for seq in range(resume, cursors[tenant_id]):
            server.ingest(
                tenant_id, tenants[tenant_id].payloads[seq], seq=seq
            )
    for tenant_id, seq in schedule[kill_at:]:
        server.ingest(tenant_id, tenants[tenant_id].payloads[seq], seq=seq)
    for tenant_id in tenants:
        assert (
            _report_fingerprint(server.close_tenant(tenant_id))
            == baseline[tenant_id]
        )
    server.close()
