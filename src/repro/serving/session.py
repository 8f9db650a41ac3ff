"""Per-tenant state: one live extraction + NET prediction pipeline.

A *tenant* is one running program streaming its branch events to the
server.  The session glues the two streaming layers together — a
:class:`~repro.trace.extractor.PathStream` segmenting the tenant's
event batches into path occurrences, and a
:class:`~repro.prediction.streaming.NETSession` watching those
occurrences for hot heads — and surfaces each first post-hot execution
as a :class:`HotPathSelection` carrying the selected fragment (the
path's block list), which is the server's response payload.

Isolation is by construction: a session owns its extractor (and thus
its path table, ids and segment memo) outright, shares no mutable state
with any other session, and is only ever driven by one thread at a time
(the server's per-tenant turnstile guarantees that).  The serving
property suite turns this into a theorem-by-test: any interleaving of
tenants' batches yields per-tenant selections byte-identical to each
tenant running alone.

The session also meters its own memory: :attr:`state_bytes` is a
deterministic estimate of the predictor-state footprint (head counters,
interned paths, segment memo), maintained incrementally so the server's
fleet-scale budget enforcement (the Table 2 counter-space story) costs
O(1) per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.program import Program
from repro.errors import CheckpointError, ServingError, TraceError
from repro.prediction.base import PredictionOutcome
from repro.prediction.streaming import NETSession
from repro.trace.batch import EventBatch
from repro.trace.extractor import PathExtractor
from repro.trace.path import Path, PathSignature

#: Estimated bytes per allocated head counter (dict slot + two ints).
COUNTER_BYTES = 96

#: Estimated fixed bytes per distinct interned path: the Path object,
#: its signature, its table slot and its segment-memo key.
PATH_BYTES = 360

#: Estimated bytes per block reference inside an interned path (the
#: blocks tuple entry plus the memo key's column bytes).
BLOCK_BYTES = 24


@dataclass(frozen=True, slots=True)
class HotPathSelection:
    """One hot-path selection announced to a tenant.

    Attributes
    ----------
    tenant_id:
        The tenant the selection belongs to.
    path_id:
        The selected path's id in the tenant's private table.
    time:
        Occurrence index (within the tenant's stream) of the selection
        moment — the paper's prediction time.
    head_uid:
        The hot head the tail executed from.
    blocks:
        The selected fragment: the path's block uids in order, ready
        for fragment construction.
    num_instructions:
        Static instruction count of the fragment.
    """

    tenant_id: str
    path_id: int
    time: int
    head_uid: int
    blocks: tuple[int, ...]
    num_instructions: int


class TenantSession:
    """The full online pipeline for one tenant's stream."""

    __slots__ = (
        "tenant_id",
        "_extractor",
        "_stream",
        "_net",
        "_known_paths",
        "_start_uids",
        "_ends_backward",
        "_num_blocks",
        "events_ingested",
        "batches_ingested",
        "state_bytes",
        "closed",
    )

    def __init__(
        self,
        tenant_id: str,
        program: Program,
        delay: int,
        max_blocks: int | None = 256,
        count_backward_arrivals_only: bool = True,
        start_uid: int | None = None,
    ):
        self.tenant_id = tenant_id
        self._extractor = PathExtractor(program, max_blocks=max_blocks)
        # ``start_uid`` resumes a stream mid-flight (a re-admitted
        # tenant whose previous session was evicted at that block).
        self._stream = self._extractor.stream(start_uid=start_uid)
        self._net = NETSession(
            delay,
            count_backward_arrivals_only=count_backward_arrivals_only,
        )
        self._known_paths = 0
        # Per-path static attributes, appended as the table grows, so
        # the batch NET loop never touches Path objects.
        self._start_uids: list[int] = []
        self._ends_backward: list[bool] = []
        self._num_blocks: list[int] = []
        self.events_ingested = 0
        self.batches_ingested = 0
        self.state_bytes = 0
        self.closed = False

    # ------------------------------------------------------------------
    def ingest(self, batch: EventBatch) -> list[HotPathSelection]:
        """Feed one batch; return the selections it triggered."""
        if self.closed:
            raise ServingError(
                f"tenant {self.tenant_id!r} session is closed"
            )
        self.events_ingested += len(batch)
        self.batches_ingested += 1
        return self._observe(self._stream.feed(batch))

    def close(self) -> list[HotPathSelection]:
        """End the stream; return selections from the final segment."""
        if self.closed:
            raise ServingError(
                f"tenant {self.tenant_id!r} session is closed"
            )
        selections = self._observe(self._stream.finish())
        self.closed = True
        return selections

    # ------------------------------------------------------------------
    def _observe(self, path_ids: list[int]) -> list[HotPathSelection]:
        self._register_paths()
        table = self._extractor.table
        net = self._net
        start = net.flow
        counters_before = net.counter_space
        start_uids = self._start_uids
        selected = net.observe_batch(
            path_ids, start_uids, self._ends_backward, self._num_blocks
        )
        self.state_bytes += COUNTER_BYTES * (
            net.counter_space - counters_before
        )
        selections: list[HotPathSelection] = []
        for position in selected:
            path_id = path_ids[position]
            path = table.path(path_id)
            selections.append(
                HotPathSelection(
                    tenant_id=self.tenant_id,
                    path_id=path_id,
                    time=start + position,
                    head_uid=start_uids[path_id],
                    blocks=path.blocks,
                    num_instructions=path.num_instructions,
                )
            )
        return selections

    def _register_paths(self) -> None:
        """Append newly interned paths' static attributes and bytes."""
        table = self._extractor.table
        for path_id in range(self._known_paths, len(table)):
            path = table.path(path_id)
            self._start_uids.append(path.start_uid)
            self._ends_backward.append(path.ends_with_backward_branch)
            self._num_blocks.append(path.num_blocks)
            self.state_bytes += PATH_BYTES + BLOCK_BYTES * path.num_blocks
        self._known_paths = len(table)

    # ------------------------------------------------------------------
    # Durable state (serving checkpoints)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The session's complete state as plain JSON-able data.

        Captures the three mutable layers — the interned path table (in
        discovery order, so restored ids keep their meaning), the
        extraction stream's cursor (including the open segment's carried
        events), and the NET predictor state — plus the session's own
        bookkeeping.  :meth:`restore` rebuilds a session that continues
        the stream byte-identically: same selections, same times, same
        counter space, same metered bytes.  Only valid at a batch
        boundary (between :meth:`ingest` calls), which is when the
        server's turnstile guarantees the state is quiescent.
        """
        if self.closed:
            raise ServingError(
                f"tenant {self.tenant_id!r} session is closed"
            )
        table = self._extractor.table
        paths = []
        for path_id in range(len(table)):
            path = table.path(path_id)
            sig = path.signature
            paths.append(
                [
                    list(path.blocks),
                    sig.start_address,
                    sig.history,
                    sig.bit_count,
                    list(sig.indirect_targets),
                    path.num_instructions,
                    path.num_cond_branches,
                    path.num_indirect_branches,
                    bool(path.ends_with_backward_branch),
                ]
            )
        return {
            "tenant_id": self.tenant_id,
            "delay": self._net.delay,
            "max_blocks": self._extractor._max_blocks,
            "count_backward_arrivals_only": (
                self._net.count_backward_arrivals_only
            ),
            "paths": paths,
            "stream": self._stream.checkpoint(),
            "net": self._net.state_dict(),
            "events_ingested": self.events_ingested,
            "batches_ingested": self.batches_ingested,
            "state_bytes": self.state_bytes,
        }

    @classmethod
    def restore(cls, program: Program, state: dict) -> "TenantSession":
        """Rebuild a session from a :meth:`snapshot` payload.

        ``program`` must be the program the snapshotted session was
        serving (tenant programs are registered by name and do not
        travel through checkpoints).
        """
        try:
            session = cls(
                tenant_id=state["tenant_id"],
                program=program,
                delay=int(state["delay"]),
                max_blocks=state["max_blocks"],
                count_backward_arrivals_only=bool(
                    state["count_backward_arrivals_only"]
                ),
            )
            table = session._extractor.table
            for number, record in enumerate(state["paths"]):
                (
                    blocks,
                    start_address,
                    history,
                    bit_count,
                    indirect,
                    num_instructions,
                    num_cond,
                    num_indirect,
                    ends_backward,
                ) = record
                path = Path(
                    signature=PathSignature(
                        start_address=int(start_address),
                        history=int(history),
                        bit_count=int(bit_count),
                        indirect_targets=tuple(
                            int(t) for t in indirect
                        ),
                    ),
                    blocks=tuple(int(b) for b in blocks),
                    start_uid=int(blocks[0]),
                    num_instructions=int(num_instructions),
                    num_cond_branches=int(num_cond),
                    num_indirect_branches=int(num_indirect),
                    ends_with_backward_branch=bool(ends_backward),
                )
                if table.intern(path) != number:
                    # A repeated signature would shift every later id.
                    raise CheckpointError(
                        f"invalid session snapshot: path record {number} "
                        "duplicates an earlier path"
                    )
            session._register_paths()
            session._stream = session._extractor.resume_stream(
                state["stream"]
            )
            session._net.load_state(state["net"])
            session.events_ingested = int(state["events_ingested"])
            session.batches_ingested = int(state["batches_ingested"])
            session.state_bytes = int(state["state_bytes"])
        except (
            KeyError,
            IndexError,
            TypeError,
            ValueError,
            OverflowError,
            TraceError,
        ) as error:
            raise CheckpointError(
                f"invalid session snapshot: {error!r}"
            ) from error
        return session

    # ------------------------------------------------------------------
    @property
    def flow(self) -> int:
        """Path occurrences observed so far."""
        return self._net.flow

    @property
    def num_paths(self) -> int:
        """Distinct paths interned so far."""
        return len(self._extractor.table)

    @property
    def counter_space(self) -> int:
        """Head counters allocated so far."""
        return self._net.counter_space

    @property
    def stream_position(self) -> int:
        """Block uid the event stream is at (resume point on eviction)."""
        return self._stream.position

    def outcome(self) -> PredictionOutcome:
        """The tenant's cumulative outcome (see :meth:`NETSession.outcome`)."""
        return self._net.outcome()
