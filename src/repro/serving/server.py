"""The multi-tenant online hot-path prediction server.

:class:`PredictionServer` accepts wire-encoded event batches (see
:mod:`repro.serving.wire`) from many concurrent tenants and answers
each ingest with the :class:`~repro.serving.session.HotPathSelection`
records that batch triggered.  One tenant is one running program; its
predictor state is a private
:class:`~repro.serving.session.TenantSession`.

Concurrency model
-----------------
Tenants are hashed onto a fixed set of *shards*.  Each shard has two
locks with distinct jobs:

* an **admission condition** guarding the shard's bookkeeping (tenant
  map, queue depths, LRU clock).  Admission is cheap and never blocks
  on predictor work, so backpressure decisions stay responsive while
  batches are being applied;
* a **state lock** held while applying a batch to any session in the
  shard — the per-shard predictor-state lock of the design.

A per-tenant *turnstile* (monotonic ticket/turn counters under the
admission condition) serializes one tenant's batches in admission
order, so a tenant's stream is applied strictly in sequence even when
several transport threads carry it.

Backpressure
------------
Each tenant's ingest queue — events admitted but not yet applied — is
bounded.  A batch that would overflow it is *rejected* with
:class:`~repro.errors.BackpressureError` carrying a retry-after hint;
the server never buffers unboundedly on behalf of a slow consumer.

Memory budget
-------------
Sessions meter their predictor-state bytes (head counters, interned
paths, segment memo).  When a shard's share of the configured budget is
exceeded, idle tenants are evicted in LRU order: their session is
dropped (the counters are exactly the cheap, reconstructible state the
paper's Table 2 argues NET keeps small) and a later batch readmits them
with a fresh session that re-warms.  Tenants with queued or in-flight
work are never evicted.  With durability enabled, eviction checkpoints
the victim first, so readmission restores the session losslessly
instead of re-warming.

Durability
----------
With a ``state_dir``, the server keeps a per-shard
:class:`~repro.serving.durability.DurabilityStore`: tenant sessions are
snapshotted every ``checkpoint_interval_batches`` applied batches (and
at eviction and drain), and every applied batch's content digest is
logged to a CRC-framed WAL keyed by the tenant's **sequence number**.
Sequence numbers make ingest exactly-once: a duplicate (``seq`` already
applied) is acked without effect after its digest is verified against
the log, a gap (``seq`` ahead of the stream) is rejected with
:class:`~repro.errors.SequenceError`, and after
:meth:`PredictionServer.restore` a client re-sending the batches past
the last snapshot has them re-applied — verified byte-identical to the
originals — rebuilding exactly the pre-crash state.  :meth:`drain`
stops admissions (:class:`~repro.errors.DrainingError`), waits out
in-flight work, checkpoints every resident tenant and fsyncs, enabling
a rolling restart where the successor ``restore()``s and tenants
continue mid-stream.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cfg.program import Program
from repro.errors import (
    BackpressureError,
    CheckpointError,
    DrainingError,
    SequenceError,
    ServingError,
)
from repro.obs.core import Registry, get_registry
from repro.prediction.base import PredictionOutcome
from repro.serving.durability import DurabilityStore
from repro.serving.session import HotPathSelection, TenantSession
from repro.serving.wire import batch_digest, decode_batch
from repro.trace.batch import EventBatch


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`PredictionServer`.

    Attributes
    ----------
    num_shards:
        Number of independent shards tenants are hashed onto.
    delay:
        NET prediction delay τ applied to every tenant.
    max_blocks:
        Per-path block cap handed to each tenant's extractor.
    max_queued_events:
        Per-tenant ingest-queue bound, in events (admitted but not yet
        applied).  Ingests beyond it are rejected with backpressure.
    memory_budget_bytes:
        Server-wide predictor-state budget; each shard enforces its
        ``1/num_shards`` share.  ``None`` disables eviction.
    retry_after_seconds:
        Base retry-after hint attached to backpressure rejections.
    checkpoint_interval_batches:
        With durability enabled, snapshot a tenant's session every this
        many applied batches (eviction and drain snapshot regardless).
    wal_rotate_records:
        Rotate a shard's WAL (dropping records covered by snapshots)
        once it holds more than this many records.
    """

    num_shards: int = 8
    delay: int = 50
    max_blocks: int | None = 256
    max_queued_events: int = 1 << 16
    memory_budget_bytes: int | None = None
    retry_after_seconds: float = 0.05
    checkpoint_interval_batches: int = 64
    wal_rotate_records: int = 8192

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ServingError("num_shards must be positive")
        if self.delay < 0:
            raise ServingError("delay must be non-negative")
        if self.max_queued_events < 1:
            raise ServingError("max_queued_events must be positive")
        if (
            self.memory_budget_bytes is not None
            and self.memory_budget_bytes < 1
        ):
            raise ServingError("memory_budget_bytes must be positive")
        if self.retry_after_seconds <= 0:
            raise ServingError("retry_after_seconds must be positive")
        if self.checkpoint_interval_batches < 1:
            raise ServingError(
                "checkpoint_interval_batches must be positive"
            )
        if self.wal_rotate_records < 1:
            raise ServingError("wal_rotate_records must be positive")


@dataclass(frozen=True)
class IngestResult:
    """Reply to one accepted ingest.

    ``duplicate`` marks a batch acked *without effect*: its sequence
    number was already applied, so the server verified the payload
    digest against its log and returned success with no selections —
    the safe-retry half of exactly-once ingest.
    """

    tenant_id: str
    seq: int
    events: int
    selections: tuple[HotPathSelection, ...]
    duplicate: bool = False


@dataclass(frozen=True)
class TenantReport:
    """Final record returned when a tenant's stream is closed."""

    tenant_id: str
    selections: tuple[HotPathSelection, ...]
    outcome: PredictionOutcome
    events_ingested: int
    batches_ingested: int
    flow: int
    num_paths: int
    counter_space: int
    state_bytes: int
    evictions: int


@dataclass
class _Tenant:
    tenant_id: str
    program: Program
    program_name: str | None = None
    session: TenantSession | None = None
    queued_events: int = 0
    next_seq: int = 0
    turn: int = 0
    last_used: int = 0
    closed: bool = False
    poisoned: bool = False
    had_session: bool = False
    resume_uid: int | None = None
    evictions: int = 0
    events_ingested: int = 0
    batches_ingested: int = 0
    # Durability bookkeeping (unused without a state dir).
    durable_seq: int = -1
    last_snapshot_seq: int = -1
    batches_since_snapshot: int = 0
    digests: dict[int, int] = field(default_factory=dict)
    parked_snapshot: dict | None = None
    unaccounted_bytes: int = 0
    open_logged: bool = False


#: In-memory digest retention per tenant when durability is off (the
#: window within which a retried duplicate can still be verified).
_DIGEST_RETENTION = 1024


class _Shard:
    __slots__ = (
        "index",
        "cond",
        "state_lock",
        "tenants",
        "clock",
        "state_bytes",
        "stats",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.cond = threading.Condition()
        self.state_lock = threading.Lock()
        self.tenants: dict[str, _Tenant] = {}
        self.clock = 0
        self.state_bytes = 0
        self.stats = {
            "ingested_events": 0,
            "ingested_batches": 0,
            "selections": 0,
            "rejects": 0,
            "evictions": 0,
            "evicted_bytes": 0,
            "readmissions": 0,
            "tenants_opened": 0,
            "tenants_closed": 0,
            "checkpoints": 0,
            "restores": 0,
            "replayed": 0,
            "dropped": 0,
            "apply_seconds": 0.0,
        }


class PredictionServer:
    """Sharded, thread-safe, long-running NET prediction service.

    ``admit_hook``/``apply_hook`` are deterministic-test instrumentation
    points: ``admit_hook(tenant_id, seq)`` fires after a batch passes
    admission (before it waits its turn), ``apply_hook(tenant_id, batch)``
    fires under the shard state lock immediately before the batch is
    applied.  Production servers leave both unset.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        admit_hook: Callable[[str, int], None] | None = None,
        apply_hook: Callable[[str, EventBatch], None] | None = None,
        state_dir: str | None = None,
    ):
        self.config = config if config is not None else ServerConfig()
        self._shards = [
            _Shard(index) for index in range(self.config.num_shards)
        ]
        self._admit_hook = admit_hook
        self._apply_hook = apply_hook
        self._draining = False
        self._store = (
            DurabilityStore(state_dir, self.config.num_shards)
            if state_dir is not None
            else None
        )

    @classmethod
    def restore(
        cls,
        state_dir: str,
        programs: dict[str, Program],
        config: ServerConfig | None = None,
    ) -> "PredictionServer":
        """Rebuild a server from ``state_dir`` after a crash or drain.

        Every tenant found in the store is re-registered at its last
        snapshot: its next expected sequence number rewinds to the
        snapshot (clients learn it via ``expected_seq`` and re-send
        from there), and the WAL's digest log verifies the re-sent
        batches are byte-identical to the ones originally applied.
        Sessions themselves are rebuilt lazily on first ingest.
        ``programs`` maps registered program names to programs; a
        recovered tenant naming an unknown program is an error.
        """
        server = cls(config, state_dir=state_dir)
        for shard, tenants in zip(
            server._shards, server._store.recover()
        ):
            for tenant_id, entry in tenants.items():
                if entry.program_name is None:
                    raise CheckpointError(
                        f"recovered tenant {tenant_id!r} has no "
                        "program name in the store"
                    )
                program = programs.get(entry.program_name)
                if program is None:
                    raise CheckpointError(
                        f"recovered tenant {tenant_id!r} references "
                        f"program {entry.program_name!r}, which is not "
                        "in the registry"
                    )
                tenant = _Tenant(
                    tenant_id=tenant_id,
                    program=program,
                    program_name=entry.program_name,
                )
                tenant.next_seq = entry.snapshot_seq + 1
                tenant.turn = tenant.next_seq
                tenant.durable_seq = entry.durable_seq
                tenant.last_snapshot_seq = entry.snapshot_seq
                tenant.digests = dict(entry.digests)
                tenant.parked_snapshot = entry.snapshot
                tenant.had_session = entry.snapshot is not None
                if entry.snapshot is not None:
                    # The tenant-level totals (what TenantReport cites)
                    # resume from the snapshot; replayed batches past it
                    # re-increment exactly as the originals did.
                    tenant.events_ingested = int(
                        entry.snapshot["events_ingested"]
                    )
                    tenant.batches_ingested = int(
                        entry.snapshot["batches_ingested"]
                    )
                tenant.open_logged = True
                shard.tenants[tenant_id] = tenant
                shard.stats["tenants_opened"] += 1
        return server

    @property
    def durable(self) -> bool:
        """Whether the server persists checkpoints to a state dir."""
        return self._store is not None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_index(self, tenant_id: str) -> int:
        """The shard ``tenant_id`` is routed to (stable across runs)."""
        return zlib.crc32(tenant_id.encode("utf-8")) % len(self._shards)

    def _shard(self, tenant_id: str) -> _Shard:
        return self._shards[self.shard_index(tenant_id)]

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def open_tenant(
        self,
        tenant_id: str,
        program: Program,
        program_name: str | None = None,
    ) -> None:
        """Register ``tenant_id`` with its program ahead of ingesting.

        ``program_name`` is the registry name checkpoints record so a
        restored server can re-associate the tenant with its program;
        required when durability is enabled.
        """
        shard = self._shard(tenant_id)
        with shard.cond:
            self._admit_tenant(shard, tenant_id, program, program_name)

    def _admit_tenant(
        self,
        shard: _Shard,
        tenant_id: str,
        program: Program | None = None,
        program_name: str | None = None,
    ) -> _Tenant:
        if self._draining:
            raise DrainingError(self.config.retry_after_seconds)
        tenant = shard.tenants.get(tenant_id)
        if tenant is None:
            if program is None:
                raise ServingError(
                    f"unknown tenant {tenant_id!r}; open it first"
                )
            if self._store is not None and program_name is None:
                raise ServingError(
                    f"tenant {tenant_id!r} needs a program_name when "
                    "durability is enabled (checkpoints record the "
                    "registry name, not the program itself)"
                )
            tenant = _Tenant(
                tenant_id=tenant_id,
                program=program,
                program_name=program_name,
            )
            shard.tenants[tenant_id] = tenant
            shard.stats["tenants_opened"] += 1
        if tenant.closed:
            raise ServingError(f"tenant {tenant_id!r} is closed")
        if tenant.poisoned:
            raise ServingError(
                f"tenant {tenant_id!r} stream is poisoned by an earlier "
                "ingest failure; close and reopen it"
            )
        if self._store is not None and not tenant.open_logged:
            # The open record is what lets a restore re-register a
            # tenant that crashed before its first snapshot.
            self._store.shards[self.shard_index(tenant_id)].append(
                {
                    "k": "open",
                    "t": tenant_id,
                    "p": tenant.program_name,
                }
            )
            tenant.open_logged = True
        return tenant

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        tenant_id: str,
        payload: bytes | bytearray | memoryview,
        seq: int | None = None,
    ) -> IngestResult:
        """Apply one batch to ``tenant_id``'s stream.

        ``payload`` is the batch's wire encoding, decoded once before
        any lock is taken.  Returns the selections the batch triggered;
        raises :class:`~repro.errors.BackpressureError` when the
        tenant's ingest queue is full and a trace/serving error when
        the payload or stream is invalid.

        ``seq`` is the client-assigned sequence number driving
        exactly-once ingest.  ``None`` lets the server assign the next
        number (at-most-once from the client's point of view: a retried
        batch would be applied twice).  With an explicit ``seq``, a
        number already applied is acked without effect
        (``duplicate=True``) after its digest is verified, and a number
        ahead of the stream raises
        :class:`~repro.errors.SequenceError` — so a client may retry
        any batch blindly until it is acknowledged.
        """
        batch = decode_batch(payload)
        n = len(batch)
        shard = self._shard(tenant_id)
        config = self.config
        durable = self._store is not None
        # Hashed outside any lock; only needed when the batch can be
        # compared against history (explicit seq) or must enter it.
        digest = (
            batch_digest(payload) if durable or seq is not None else None
        )

        with shard.cond:
            tenant = self._admit_tenant(shard, tenant_id)
            if seq is None:
                seq = tenant.next_seq
            elif seq < tenant.next_seq:
                recorded = tenant.digests.get(seq)
                if recorded is not None and recorded != digest:
                    raise SequenceError(
                        tenant_id,
                        expected=tenant.next_seq,
                        got=seq,
                        reason="duplicate payload differs from the "
                        "batch originally applied under that seq",
                    )
                shard.stats["dropped"] += 1
                return IngestResult(
                    tenant_id=tenant_id,
                    seq=seq,
                    events=n,
                    selections=(),
                    duplicate=True,
                )
            elif seq > tenant.next_seq:
                raise SequenceError(
                    tenant_id,
                    expected=tenant.next_seq,
                    got=seq,
                    reason="gap",
                )
            replayed = seq <= tenant.durable_seq
            if replayed:
                recorded = tenant.digests.get(seq)
                if recorded is not None and recorded != digest:
                    raise SequenceError(
                        tenant_id,
                        expected=tenant.next_seq,
                        got=seq,
                        reason="re-sent batch differs from the batch "
                        "whose digest the log recorded",
                    )
            if tenant.queued_events + n > config.max_queued_events:
                shard.stats["rejects"] += 1
                raise BackpressureError(
                    tenant_id,
                    queued_events=tenant.queued_events,
                    capacity=config.max_queued_events,
                    retry_after_seconds=config.retry_after_seconds,
                )
            tenant.queued_events += n
            tenant.next_seq += 1
            if self._admit_hook is not None:
                self._admit_hook(tenant_id, seq)
            while tenant.turn != seq:
                shard.cond.wait()

        try:
            with shard.state_lock:
                session = self._resident_session(shard, tenant)
                if self._apply_hook is not None:
                    self._apply_hook(tenant_id, batch)
                before_bytes = session.state_bytes
                started = time.perf_counter()
                selections = session.ingest(batch)
                elapsed = time.perf_counter() - started
                delta_bytes = session.state_bytes - before_bytes
                if durable:
                    store_shard = self._store.shards[shard.index]
                    if tenant.digests.get(seq) != digest:
                        store_shard.append(
                            {
                                "k": "batch",
                                "t": tenant_id,
                                "s": seq,
                                "d": digest,
                            }
                        )
                    tenant.digests[seq] = digest
                    if seq > tenant.durable_seq:
                        tenant.durable_seq = seq
                    tenant.batches_since_snapshot += 1
                    if (
                        tenant.batches_since_snapshot
                        >= config.checkpoint_interval_batches
                    ):
                        self._checkpoint_tenant(
                            store_shard, shard, tenant, session, seq
                        )
                    if replayed:
                        shard.stats["replayed"] += 1
                elif digest is not None:
                    # Bounded in-memory digest window so explicit-seq
                    # retries stay verifiable without durability.
                    tenant.digests[seq] = digest
                    while len(tenant.digests) > _DIGEST_RETENTION:
                        tenant.digests.pop(next(iter(tenant.digests)))
        except Exception:
            with shard.cond:
                tenant.poisoned = True
                self._finish_turn(shard, tenant, n)
            raise

        with shard.cond:
            tenant.events_ingested += n
            tenant.batches_ingested += 1
            stats = shard.stats
            stats["ingested_events"] += n
            stats["ingested_batches"] += 1
            stats["selections"] += len(selections)
            stats["apply_seconds"] += elapsed
            shard.state_bytes += delta_bytes + tenant.unaccounted_bytes
            tenant.unaccounted_bytes = 0
            self._touch(shard, tenant)
            self._evict_over_budget(shard, keep=tenant)
            if (
                durable
                and self._store.shards[shard.index].record_count
                > config.wal_rotate_records
            ):
                # cond (tenant map stable) + state lock (digest maps
                # stable) make the live-record scan consistent.
                with shard.state_lock:
                    self._store.shards[shard.index].rotate(
                        self._store.live_records(
                            shard.index, shard.tenants
                        )
                    )
            self._finish_turn(shard, tenant, n)
        return IngestResult(
            tenant_id=tenant_id,
            seq=seq,
            events=n,
            selections=tuple(selections),
        )

    def _checkpoint_tenant(
        self,
        store_shard,
        shard: _Shard,
        tenant: _Tenant,
        session: TenantSession,
        seq: int,
    ) -> dict:
        """Snapshot ``tenant`` as of applied batch ``seq``.

        Caller holds the shard state lock (or the tenant is provably
        idle); the session must be at a batch boundary.  Returns the
        session-state dict that was persisted.
        """
        state = session.snapshot()
        payload = {
            "tenant_id": tenant.tenant_id,
            "program_name": tenant.program_name,
            "seq": seq,
            "session": state,
        }
        store_shard.write_snapshot(tenant.tenant_id, payload)
        tenant.last_snapshot_seq = seq
        tenant.batches_since_snapshot = 0
        # The WAL drops records the snapshot covers at rotation; in
        # memory a retention window outlives them so late duplicates
        # can still be verified against what was actually applied.
        horizon = seq - _DIGEST_RETENTION
        for stale in [s for s in tenant.digests if s <= horizon]:
            del tenant.digests[stale]
        shard.stats["checkpoints"] += 1
        return state

    def _finish_turn(self, shard: _Shard, tenant: _Tenant, n: int) -> None:
        tenant.queued_events -= n
        tenant.turn += 1
        shard.cond.notify_all()

    def _resident_session(
        self, shard: _Shard, tenant: _Tenant
    ) -> TenantSession:
        """The tenant's live session, recreated after an eviction.

        Called under the shard state lock; the session field is only
        ever assigned here and dropped by eviction (under the admission
        condition while the tenant is idle), so the turn-holder always
        sees a consistent value.
        """
        session = tenant.session
        if session is None:
            if tenant.parked_snapshot is not None:
                # Lossless path: a checkpoint (from eviction, drain or
                # recovery) rebuilds the session exactly where the
                # stream stood.  The restored bytes are invisible to
                # the shard's delta accounting until the next ingest
                # settles, hence ``unaccounted_bytes``.
                session = TenantSession.restore(
                    tenant.program, tenant.parked_snapshot
                )
                tenant.parked_snapshot = None
                tenant.unaccounted_bytes += session.state_bytes
                shard.stats["restores"] += 1
            else:
                session = TenantSession(
                    tenant_id=tenant.tenant_id,
                    program=tenant.program,
                    delay=self.config.delay,
                    max_blocks=self.config.max_blocks,
                    start_uid=tenant.resume_uid,
                )
            tenant.session = session
            if tenant.had_session:
                shard.stats["readmissions"] += 1
            tenant.had_session = True
        return session

    def _touch(self, shard: _Shard, tenant: _Tenant) -> None:
        shard.clock += 1
        tenant.last_used = shard.clock

    def _evict_over_budget(
        self, shard: _Shard, keep: _Tenant | None = None
    ) -> None:
        """Drop idle LRU sessions until the shard is back under budget."""
        budget = self.config.memory_budget_bytes
        if budget is None:
            return
        shard_budget = max(1, budget // len(self._shards))
        while shard.state_bytes > shard_budget:
            victim: _Tenant | None = None
            for tenant in shard.tenants.values():
                if tenant is keep or tenant.session is None:
                    continue
                if tenant.queued_events or tenant.turn != tenant.next_seq:
                    continue  # queued or in-flight work: not evictable
                if victim is None or tenant.last_used < victim.last_used:
                    victim = tenant
            if victim is None:
                return  # nothing evictable; budget is soft under load
            freed = victim.session.state_bytes
            if self._store is not None:
                # Durable eviction is lossless: checkpoint the victim
                # and park the snapshot so readmission restores instead
                # of re-warming.  The victim is idle (no queued or
                # in-flight work), so its session is at a quiescent
                # batch boundary.
                with shard.state_lock:
                    victim.parked_snapshot = self._checkpoint_tenant(
                        self._store.shards[shard.index],
                        shard,
                        victim,
                        victim.session,
                        victim.next_seq - 1,
                    )
            else:
                # Remember where the stream stood so the fresh session
                # a readmission builds resumes mid-flight instead of
                # tripping the continuity check at the program entry.
                victim.resume_uid = victim.session.stream_position
            victim.session = None
            victim.evictions += 1
            shard.state_bytes -= freed
            shard.stats["evictions"] += 1
            shard.stats["evicted_bytes"] += freed

    # ------------------------------------------------------------------
    # Close
    # ------------------------------------------------------------------
    def close_tenant(self, tenant_id: str) -> TenantReport:
        """End ``tenant_id``'s stream and release its state.

        Takes a regular turnstile ticket, so every batch admitted
        before the close is applied first; ingests arriving after the
        close are rejected at admission.
        """
        shard = self._shard(tenant_id)
        with shard.cond:
            if self._draining:
                raise DrainingError(self.config.retry_after_seconds)
            tenant = shard.tenants.get(tenant_id)
            if tenant is None:
                raise ServingError(f"unknown tenant {tenant_id!r}")
            if tenant.closed:
                raise ServingError(f"tenant {tenant_id!r} is closed")
            tenant.closed = True  # admission now rejects new ingests
            seq = tenant.next_seq
            tenant.next_seq += 1
            while tenant.turn != seq:
                shard.cond.wait()

        with shard.state_lock:
            session = self._resident_session(shard, tenant)
            # The shard's accounting has seen exactly the deltas of the
            # applied batches; the final flush below grows the session
            # past that, so remember what to release *before* closing.
            tracked_bytes = session.state_bytes
            selections = session.close()
            if self._store is not None:
                # The close record retires the tenant from recovery;
                # fsync before dropping the snapshot so a crash between
                # the two heals toward "closed", never "rewound".
                store_shard = self._store.shards[shard.index]
                store_shard.append(
                    {"k": "close", "t": tenant_id}, sync=True
                )
                store_shard.delete_snapshot(tenant_id)

        with shard.cond:
            del shard.tenants[tenant_id]
            # A session restored from a checkpoint carries bytes the
            # shard's delta accounting never saw; release only what it
            # tracked.
            shard.state_bytes -= tracked_bytes - tenant.unaccounted_bytes
            shard.stats["tenants_closed"] += 1
            shard.stats["selections"] += len(selections)
            tenant.turn += 1
            shard.cond.notify_all()
        return TenantReport(
            tenant_id=tenant_id,
            selections=tuple(selections),
            outcome=session.outcome(),
            events_ingested=tenant.events_ingested,
            batches_ingested=tenant.batches_ingested,
            flow=session.flow,
            num_paths=session.num_paths,
            counter_space=session.counter_space,
            state_bytes=session.state_bytes,
            evictions=tenant.evictions,
        )

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Stop admissions, finish in-flight work, checkpoint everyone.

        After ``drain`` returns, every admitted batch has been applied,
        every tenant holding live state has a fresh durable snapshot
        (when durability is enabled) and the WALs are fsynced — a
        successor process can :meth:`restore` from the state dir and
        tenants continue mid-stream with no batch re-sent.  New
        admissions (ingest, open, close) raise
        :class:`~repro.errors.DrainingError` carrying a retry-after
        hint the moment the drain begins.  Raises
        :class:`~repro.errors.ServingError` if in-flight work does not
        settle within ``timeout`` seconds (the drain stays in effect).
        """
        self._draining = True
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for shard in self._shards:
            with shard.cond:
                while any(
                    tenant.turn != tenant.next_seq
                    for tenant in shard.tenants.values()
                ):
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise ServingError(
                                "drain timed out with batches still "
                                "in flight"
                            )
                    shard.cond.wait(remaining)
                if self._store is None:
                    continue
                store_shard = self._store.shards[shard.index]
                with shard.state_lock:
                    for tenant in shard.tenants.values():
                        # Parked or never-started state is already
                        # durable; only live sessions need a snapshot.
                        if tenant.session is None or tenant.closed:
                            continue
                        self._checkpoint_tenant(
                            store_shard,
                            shard,
                            tenant,
                            tenant.session,
                            tenant.next_seq - 1,
                        )
                store_shard.sync()

    def close(self) -> None:
        """Release the durability store's file handles (idempotent).

        Simulated crashes in tests abandon a server instance and
        restore a successor over the same state dir; closing first
        keeps the handle count bounded.  Does **not** drain or
        checkpoint — state on disk stays exactly as it was.
        """
        if self._store is not None:
            self._store.close()

    def expected_seq(self, tenant_id: str) -> int:
        """The next sequence number the server will accept for a tenant.

        The recovery handshake: after a reconnect (or a server
        restart), a client asks where the stream stands and re-sends
        from there.  Unknown tenants report ``0`` — nothing of theirs
        survives, so the stream starts over.
        """
        shard = self._shard(tenant_id)
        with shard.cond:
            tenant = shard.tenants.get(tenant_id)
            return tenant.next_seq if tenant is not None else 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_tenants(self) -> int:
        """Tenants currently holding live predictor state."""
        total = 0
        for shard in self._shards:
            with shard.cond:
                total += sum(
                    1
                    for tenant in shard.tenants.values()
                    if tenant.session is not None
                )
        return total

    def state_bytes(self) -> int:
        """Metered predictor-state bytes across all shards."""
        total = 0
        for shard in self._shards:
            with shard.cond:
                total += shard.state_bytes
        return total

    def stats(self) -> dict:
        """Aggregated server statistics as a plain dict."""
        totals: dict[str, float] = {}
        for shard in self._shards:
            with shard.cond:
                for key, value in shard.stats.items():
                    totals[key] = totals.get(key, 0) + value
        totals["resident_tenants"] = self.resident_tenants()
        totals["state_bytes"] = self.state_bytes()
        if self._store is not None:
            totals.update(self._store.stats())
        return totals

    def publish(self, obs: Registry | None) -> None:
        """Fold the server's statistics into an obs registry (once, at
        the end of a run): counters under their stat names, the current
        residency and state bytes as gauges, apply time as a timer."""
        reg = get_registry(obs)
        if not reg.enabled:
            return
        stats = self.stats()
        for name in (
            "ingested_events",
            "ingested_batches",
            "selections",
            "rejects",
            "evictions",
            "evicted_bytes",
            "readmissions",
            "tenants_opened",
            "tenants_closed",
            "checkpoints",
            "restores",
            "replayed",
            "dropped",
        ):
            reg.counter(name).inc(int(stats[name]))
        reg.gauge("resident_tenants").set(stats["resident_tenants"])
        reg.gauge("state_bytes").set(stats["state_bytes"])
        timer = reg.timer("apply")
        timer.total_seconds += stats["apply_seconds"]
        timer.count += int(stats["ingested_batches"])
