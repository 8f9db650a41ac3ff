"""Segmentation of columnar event streams.

:func:`find_cuts` locates every path-ending event in an
:class:`~repro.trace.batch.EventBatch` by the paper's §3 segmentation
rules (see :mod:`repro.trace.extractor`):

* **hard cuts** — backward taken transfers and the halt event;
* **return cuts** — a forward return closing an in-path forward call: a
  segment's count of open in-path calls never decrements within it, so
  the first forward return after the first forward call *is* the cut;
* **max-length cuts** fall at a fixed offset from the segment start.

Only hard cuts, forward calls and forward returns can change what the
rules decide, and they are the few events of a batch that carry one.
One table lookup on the kind codes marks them, and one scan over the
marked events applies the rules, placing length cuts between them by
arithmetic.  The cut list drives both the path extractor and the
bit-tracing profiler, which is what keeps the two in exact agreement.
"""

from __future__ import annotations

import numpy as np

from repro.trace.batch import CODE_CALL, CODE_KIND, CODE_RETURN, HALT_DST

#: Event classes the scan reads: bit 0 marks a hard cut (set from the
#: backward flag, and on the halt), the kind table gives the rest.
_HARD = 1
_CALL = 2
_RETURN = 4

#: kind code -> the class of its forward transfer.
_KIND_CLASS = np.zeros(len(CODE_KIND), dtype=np.uint8)
_KIND_CLASS[CODE_CALL] = _CALL
_KIND_CLASS[CODE_RETURN] = _RETURN


def find_cuts(
    dst: np.ndarray,
    kind: np.ndarray,
    backward: np.ndarray,
    max_blocks: int | None,
) -> np.ndarray:
    """Indices of every segment-ending event, ascending.

    The columns must already be truncated at the first halt event (the
    stream ends there), so only the last event can be the halt.  A
    segment starting right after cut ``p`` (or at ``p = -1`` for the
    stream head) ends at the smallest index among: the next hard cut
    (backward or halt), the first forward return preceded by a forward
    call within the segment, and ``p + max_blocks``.  Events after the
    last cut form the unterminated tail and produce no entry.
    """
    n = len(dst)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    classes = _KIND_CLASS.take(kind)
    classes |= backward
    if dst[-1] == HALT_DST:
        classes[-1] = _HARD
    marked = classes.nonzero()[0]
    positions = marked.tolist()
    # No segment here can reach n + 1 events.
    limit = n + 1 if max_blocks is None else max_blocks

    cuts: list[int] = []
    append = cuts.append
    start = -1  # the last cut
    open_call = False
    for index, code in zip(positions, classes[marked].tolist()):
        if index - start > limit:
            while index - start > limit:
                start += limit
                append(start)
            open_call = False
        if (
            code & _HARD
            or index - start == limit
            or (open_call and code == _RETURN)
        ):
            append(index)
            start = index
            open_call = False
        elif code == _CALL:
            open_call = True
    while n - 1 - start >= limit:
        start += limit
        append(start)

    if cuts == positions:
        # Every marked event cut and nothing else did: the common case.
        return marked.astype(np.int64, copy=False)
    return np.array(cuts, dtype=np.int64)
