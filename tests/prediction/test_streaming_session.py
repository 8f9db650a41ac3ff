"""NETSession.observe_batch against the per-occurrence reference.

The server applies NET one batch of occurrences at a time.  For random
per-path tables, occurrence streams and batch splits (empty and
one-occurrence batches included), every batch must select the same
positions and leave the same state — counter and capture maps in the
same insertion order — as the reference fed one occurrence per call.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PredictionError
from repro.prediction import NETSession
from tests.prediction.streaming_oracle import ReferenceNETSession


@st.composite
def path_tables(draw):
    """Per-path heads, backward endings and block counts."""
    num_paths = draw(st.integers(1, 24))
    heads = draw(
        st.lists(st.integers(0, 7), min_size=num_paths, max_size=num_paths)
    )
    ends_backward = draw(
        st.lists(st.booleans(), min_size=num_paths, max_size=num_paths)
    )
    num_blocks = draw(
        st.lists(
            st.integers(1, 300), min_size=num_paths, max_size=num_paths
        )
    )
    return heads, ends_backward, num_blocks


@st.composite
def occurrence_streams(draw, num_paths):
    """Up to ~2k path ids: a repeated loop body plus a free prefix, so
    heads cross delays up to 60 as they do in loopy programs."""
    path_id = st.integers(0, num_paths - 1)
    prefix = draw(st.lists(path_id, max_size=60))
    body = draw(st.lists(path_id, min_size=1, max_size=12))
    repeats = draw(st.integers(0, 1_900 // len(body)))
    suffix = draw(st.lists(path_id, max_size=40))
    return prefix + body * repeats + suffix


@st.composite
def batched_streams(draw):
    heads, ends_backward, num_blocks = draw(path_tables())
    stream = draw(occurrence_streams(len(heads)))
    splits = sorted(
        draw(st.lists(st.integers(0, len(stream)), max_size=40))
    )
    bounds = [0, *splits, len(stream)]
    batches = [
        stream[begin:end] for begin, end in zip(bounds, bounds[1:])
    ]
    return (heads, ends_backward, num_blocks), batches


def _observables(session: NETSession) -> tuple:
    return (
        session.state_dict(),
        session.counter_space,
        session.profiling_ops,
    )


@given(
    data=batched_streams(),
    delay=st.integers(0, 60),
    backward_only=st.booleans(),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_observe_batch_matches_reference(data, delay, backward_only):
    (heads, ends_backward, num_blocks), batches = data
    batched = NETSession(delay, count_backward_arrivals_only=backward_only)
    reference = ReferenceNETSession(
        delay, count_backward_arrivals_only=backward_only
    )
    for batch in batches:
        selected = batched.observe_batch(
            batch, heads, ends_backward, num_blocks
        )
        expected = [
            position
            for position, path_id in enumerate(batch)
            if reference.observe(
                path_id,
                heads[path_id],
                ends_backward[path_id],
                num_blocks[path_id],
            )
        ]
        assert selected == expected
        assert _observables(batched) == _observables(reference)


def test_state_round_trip_continues_the_stream():
    heads = [0, 0, 1]
    ends_backward = [True, True, False]
    num_blocks = [2, 3, 4]
    stream = [0, 1, 2, 0, 1, 1, 0, 2, 0, 1] * 3
    whole = NETSession(2)
    whole.observe_batch(stream, heads, ends_backward, num_blocks)

    first = NETSession(2)
    first.observe_batch(stream[:13], heads, ends_backward, num_blocks)
    resumed = NETSession(2)
    resumed.load_state(first.state_dict())
    resumed.observe_batch(stream[13:], heads, ends_backward, num_blocks)
    assert resumed.state_dict() == whole.state_dict()
    with pytest.raises(PredictionError, match="already observed"):
        resumed.load_state(first.state_dict())
