"""Property: multi-tenant serving preserves per-tenant NET outcomes.

For ANY interleaving of any number of tenants' batch streams, each
tenant's selections and final outcome must be byte-identical to running
that tenant's stream alone through the offline
:class:`~repro.prediction.net.NETPredictor` — the tenant-isolation
theorem of the serving design (private sessions, per-tenant FIFO
turnstiles, no shared predictor state).

Hypothesis drives the schedule: it picks how many tenants join, which
corpus stream each replays, and the exact global interleaving of their
batches (a shuffled multiset of per-tenant cursors).  The server is fed
single-threaded so the only variable is the interleaving itself — the
concurrency suite separately proves threaded delivery reduces to some
admission-order interleaving.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import PredictionServer, ServerConfig
from repro.serving.loadgen import build_stream, standalone_outcome

DELAY = 5

#: Small, loopy corpus shared across examples (built once at import).
_CORPUS = [
    build_stream(seed=seed, events=600, batch_events=64, trips=8)
    for seed in (11, 14, 17)
]
_OFFLINE = [standalone_outcome(stream, delay=DELAY) for stream in _CORPUS]
assert any(
    outcome.predicted_ids.size for outcome in _OFFLINE
), "corpus must actually trigger predictions for the property to bite"


def _outcome_fingerprint(outcome):
    return (
        outcome.predicted_ids.tobytes(),
        outcome.prediction_times.tobytes(),
        outcome.captured.tobytes(),
        outcome.counter_space,
        outcome.profiling_ops,
    )


@st.composite
def schedules(draw):
    num_tenants = draw(st.integers(min_value=2, max_value=5))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(_CORPUS) - 1),
            min_size=num_tenants,
            max_size=num_tenants,
        )
    )
    # The global delivery order: tenant i appears once per batch of its
    # stream; any permutation of this multiset is a valid interleaving.
    multiset = [
        tenant
        for tenant, stream_index in enumerate(assignment)
        for _ in _CORPUS[stream_index].payloads
    ]
    order = draw(st.permutations(multiset))
    num_shards = draw(st.sampled_from([1, 2, 7]))
    return assignment, order, num_shards


@given(schedules())
@settings(max_examples=120, deadline=None)
def test_any_interleaving_matches_standalone_outcomes(schedule):
    assignment, order, num_shards = schedule
    server = PredictionServer(
        ServerConfig(num_shards=num_shards, delay=DELAY)
    )
    cursors = [0] * len(assignment)
    selections = {tenant: [] for tenant in range(len(assignment))}
    for tenant, stream_index in enumerate(assignment):
        server.open_tenant(f"t{tenant}", _CORPUS[stream_index].program)
    for tenant in order:
        stream = _CORPUS[assignment[tenant]]
        index = cursors[tenant]
        cursors[tenant] = index + 1
        result = server.ingest(f"t{tenant}", stream.payloads[index])
        selections[tenant].extend(result.selections)

    for tenant, stream_index in enumerate(assignment):
        report = server.close_tenant(f"t{tenant}")
        selections[tenant].extend(report.selections)
        offline = _OFFLINE[stream_index]
        assert _outcome_fingerprint(report.outcome) == _outcome_fingerprint(
            offline
        )
        assert [s.path_id for s in selections[tenant]] == list(
            offline.predicted_ids
        )
        assert [s.time for s in selections[tenant]] == list(
            offline.prediction_times
        )
        assert all(
            s.tenant_id == f"t{tenant}" for s in selections[tenant]
        )
