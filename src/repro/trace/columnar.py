"""Vectorized segmentation of columnar event streams.

:func:`find_cuts` locates every path-ending event in an
:class:`~repro.trace.batch.EventBatch` by the paper's §3 segmentation
rules (see :mod:`repro.trace.extractor`):

* **hard cuts** — backward taken transfers and the halt event — are a
  single mask;
* **return cuts** — a forward return closing an in-path forward call —
  follow from the positions of forward calls and forward returns: a
  segment's count of open in-path calls never decrements within it, so
  the first forward return after the first forward call *is* the cut;
* **max-length cuts** fall at a fixed offset from the segment start.

Most segments end at a hard cut with neither a length overflow nor a
call/return pair inside, so the implementation classifies all
hard-to-hard regions vectorized and only walks the rare "complex"
regions with a chained scan.  Most batches hold no forward call at all;
when their regions also fit ``max_blocks`` the hard cuts are the answer
and the call/return search is skipped.  The cut list drives both the
path extractor and the bit-tracing profiler, which is what keeps the
two in exact agreement.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.trace.batch import CODE_CALL, CODE_RETURN, HALT_DST

#: Sentinel "no candidate" index, larger than any real event index.
_NO_CUT = np.iinfo(np.int64).max


def _first_after(sorted_indices: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query, the smallest entry strictly greater than it."""
    if sorted_indices.size == 0:
        return np.full(len(queries), _NO_CUT, dtype=np.int64)
    pos = np.searchsorted(sorted_indices, queries, side="right")
    safe = np.minimum(pos, sorted_indices.size - 1)
    return np.where(pos < sorted_indices.size, sorted_indices[safe], _NO_CUT)


def find_cuts(
    dst: np.ndarray,
    kind: np.ndarray,
    backward: np.ndarray,
    max_blocks: int | None,
) -> np.ndarray:
    """Indices of every segment-ending event, ascending.

    The columns must already be truncated at the first halt event (the
    stream ends there).  A segment starting right
    after cut ``p`` (or at ``p = -1`` for the stream head) ends at the
    smallest index among: the next hard cut (backward or halt), the
    first forward return preceded by a forward call within the segment,
    and ``p + max_blocks``.  Events after the last cut form the
    unterminated tail and produce no entry.
    """
    n = len(dst)
    if n == 0:
        return np.empty(0, dtype=np.int64)

    hard = np.flatnonzero(backward | (dst == HALT_DST))
    fwd_call = np.flatnonzero((kind == CODE_CALL) & ~backward)
    no_max = max_blocks is None

    # Region k spans (starts[k], ends[k]]: from just after one hard cut
    # to the next (the final region ends at n: no hard cut, the tail).
    starts = np.concatenate(([np.int64(-1)], hard))
    ends = np.concatenate((hard, [np.int64(n)]))
    if fwd_call.size == 0 and (
        no_max or int((ends - starts).max()) <= max_blocks
    ):
        # No return cut can fire and no region outgrows max_blocks:
        # the all-simple case below, without the call/return search.
        return hard

    fwd_ret = np.flatnonzero((kind == CODE_RETURN) & ~backward)

    # First forward call strictly after each region start, then the
    # first forward return strictly after that call: if that return
    # falls before the region's hard cut, the region needs sub-cuts.
    first_call = _first_after(fwd_call, starts)
    first_ret = _first_after(fwd_ret, first_call)

    simple = first_ret >= ends
    if not no_max:
        simple &= (ends - starts) <= max_blocks

    if bool(simple.all()):
        return hard

    cuts: list[int] = []
    complex_regions = np.flatnonzero(~simple)
    calls = fwd_call.tolist()
    rets = fwd_ret.tolist()
    for k in complex_regions.tolist():
        p = int(starts[k])
        h = int(ends[k])  # == n for the tail region
        while True:
            cut = h
            if not no_max:
                cut = min(cut, p + max_blocks)
            ci_k = bisect_right(calls, p)
            if ci_k < len(calls) and calls[ci_k] < cut:
                ri_k = bisect_right(rets, calls[ci_k])
                if ri_k < len(rets):
                    cut = min(cut, rets[ri_k])
            if cut >= n:
                break  # unterminated tail: no cut
            cuts.append(cut)
            if cut == h:
                break
            p = cut

    simple_cuts = ends[simple & (ends < n)]
    if cuts:
        return np.sort(
            np.concatenate((simple_cuts, np.asarray(cuts, dtype=np.int64)))
        )
    return simple_cuts.astype(np.int64, copy=False)
