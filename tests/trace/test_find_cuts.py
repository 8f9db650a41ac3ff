"""find_cuts against a per-event statement of the §3 cut rule.

Columns are drawn directly (no program), so every mix of calls,
returns, backward transfers and halts occurs — including batches with
no forward call, where ``find_cuts`` returns the hard cuts without its
call/return search unless a region outgrows ``max_blocks``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.batch import CODE_CALL, CODE_KIND, CODE_RETURN, HALT_DST
from repro.trace.columnar import find_cuts


def reference_cuts(dst, kind, backward, max_blocks):
    """The §3 segmentation rule, one event at a time (as
    :func:`tests.trace.event_oracle.segment_paths` applies it)."""
    cuts = []
    blocks = 1
    open_calls = 0
    for index, (target, code, is_backward) in enumerate(
        zip(dst, kind, backward)
    ):
        if target == HALT_DST or is_backward:
            cut = True
        elif code == CODE_CALL:
            open_calls += 1
            cut = max_blocks is not None and blocks >= max_blocks
        elif code == CODE_RETURN and open_calls:
            cut = True
        else:
            cut = max_blocks is not None and blocks >= max_blocks
        if cut:
            cuts.append(index)
            blocks = 1
            open_calls = 0
        else:
            blocks += 1
    return cuts


#: Every kind code but the call; calls are placed separately.
_NON_CALL_CODES = [c for c in range(len(CODE_KIND)) if c != CODE_CALL]


@st.composite
def columns(draw):
    n = draw(st.integers(0, 120))
    kind = draw(
        st.lists(st.sampled_from(_NON_CALL_CODES), min_size=n, max_size=n)
    )
    # No call (the hard-cut shortcut and, once a region outgrows
    # max_blocks, its fall-through), a single call, or many.
    if n:
        for position in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            kind[position] = CODE_CALL
    # One backward transfer in ``odds`` events (never, when 0).
    odds = draw(st.sampled_from([0, 3, 10, 40]))
    backward = draw(
        st.lists(
            st.integers(1, max(odds, 1)).map(
                lambda roll: odds > 0 and roll == 1
            ),
            min_size=n,
            max_size=n,
        )
    )
    dst = list(range(1, n + 1))
    if n and draw(st.booleans()):
        dst[-1] = HALT_DST  # truncated at the first halt: only last
    return (
        np.asarray(dst, dtype=np.int64),
        np.asarray(kind, dtype=np.uint8),
        np.asarray(backward, dtype=bool),
    )


@given(
    cols=columns(),
    max_blocks=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 256, None]),
)
@settings(max_examples=300, deadline=None)
def test_find_cuts_matches_per_event_rule(cols, max_blocks):
    dst, kind, backward = cols
    cuts = find_cuts(dst, kind, backward, max_blocks)
    assert cuts.dtype == np.int64
    assert cuts.tolist() == reference_cuts(
        dst.tolist(), kind.tolist(), backward.tolist(), max_blocks
    )
