"""Serving chaos harness: prove crash-safety by breaking the server.

The durability layer's contract is strong — *any* interruption of a
durable server, followed by a restore and a client re-send from the
expected sequence number, yields per-tenant predictions byte-identical
to an uninterrupted run.  This module turns that contract into an
executable experiment: a deterministic single-driver replay of a small
tenant corpus, with faults injected at planned schedule steps, whose
final per-tenant fingerprints are compared against a fault-free
baseline.

Fault vocabulary — a :class:`~repro.resilience.FaultPlan` keyed by the
global schedule step, reusing the sweep executor's spec machinery with
serving-specific meanings (:class:`ChaosFault` adds ``hang``, which the
sweep executor does not know):

``crash``
    Kill the server before the step (no drain, no final checkpoint —
    exactly a SIGKILL), restore a successor from the state dir, ask it
    where every tenant's stream stands and re-send from there.  The
    re-acked batches' selections are asserted identical to the
    originals.
``corrupt``
    A crash *plus* a flipped byte at the tail of every shard WAL before
    the restore — the torn-tail scenario recovery truncates.
``hang``
    A lost acknowledgement: the step's batch is delivered twice.  Over
    TCP the server drops the first reply on the floor and the client's
    retry policy re-sends; in-process the driver re-ingests directly.
    Either way the second delivery must be acked without effect.
``interrupt``
    A rolling restart: :meth:`~repro.serving.server.PredictionServer.
    drain` (every tenant checkpointed), then restore — the graceful
    twin of ``crash``, with nothing to re-send.

Determinism: one driver thread, a fixed round-robin schedule, seeded
corpus generation and content-addressed fingerprints make every chaos
run exactly reproducible — the same plan always breaks the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.obs.core import Registry, get_registry
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.serving.loadgen import TenantStream, build_stream
from repro.serving.server import PredictionServer, ServerConfig
from repro.serving.session import HotPathSelection
from repro.serving.transport import (
    ServingClient,
    ServingTCPServer,
    _report_record,
    _selection_record,
    start_background,
)

#: The fault kinds the serving harness knows how to inject.
SERVING_FAULT_KINDS = ("crash", "corrupt", "hang", "interrupt")


class ChaosFault(FaultSpec):
    """A fault spec in the serving harness's vocabulary."""

    kinds = SERVING_FAULT_KINDS


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos experiment."""

    #: Tenants replayed (stream ``i % num_streams`` each).
    num_tenants: int = 6
    #: Distinct generated streams.
    num_streams: int = 2
    #: Events per tenant stream.
    events_per_tenant: int = 1_200
    #: Events per ingest batch.
    batch_events: int = 96
    #: Loop trip count hint for corpus generation.
    trips: int = 15
    #: Corpus seed.
    seed: int = 23
    #: NET prediction delay.
    delay: int = 20
    #: Shards of the server under test.
    num_shards: int = 2
    #: Checkpoint cadence (small, so kills land between checkpoints).
    checkpoint_interval_batches: int = 3
    #: The faults to inject, keyed by global schedule step.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Drive the schedule over real TCP (connection-drop faults become
    #: actual dropped sockets) instead of the in-process API.
    tcp: bool = False

    def server_config(self) -> ServerConfig:
        return ServerConfig(
            num_shards=self.num_shards,
            delay=self.delay,
            checkpoint_interval_batches=self.checkpoint_interval_batches,
        )


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos run."""

    tenants: int
    steps: int
    faults_fired: tuple[tuple[str, int], ...]
    restarts: int
    replayed_batches: int
    duplicates_acked: int
    truncated_bytes: int
    #: Tenants whose chaos fingerprint differs from the baseline.
    mismatched: tuple[str, ...]
    #: Per-tenant content fingerprints (chaos run).
    fingerprints: dict[str, str]

    @property
    def equivalent(self) -> bool:
        """Whether every tenant matched the uninterrupted baseline."""
        return not self.mismatched


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _normalize_selection(selection) -> dict:
    if isinstance(selection, HotPathSelection):
        return _selection_record(selection)
    return {
        "path_id": int(selection["path_id"]),
        "time": int(selection["time"]),
        "head_uid": int(selection["head_uid"]),
        "blocks": [int(b) for b in selection["blocks"]],
        "num_instructions": int(selection["num_instructions"]),
    }


def tenant_fingerprint(
    selections_by_seq: dict[int, list[dict]],
    close_selections: list[dict],
    report: dict,
) -> str:
    """Content hash of everything a tenant observed, in stream order."""
    canonical = json.dumps(
        {
            "selections": [
                selections_by_seq[seq]
                for seq in sorted(selections_by_seq)
            ],
            "close": close_selections,
            "report": report,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


# ----------------------------------------------------------------------
# Drivers: the same schedule over the in-process API or real TCP
# ----------------------------------------------------------------------
class _InProcessDriver:
    def __init__(
        self,
        state_dir: str | None,
        programs: dict[str, "object"],
        config: ServerConfig,
    ):
        self.state_dir = state_dir
        self.programs = programs
        self.config = config
        self.server = PredictionServer(config, state_dir=state_dir)

    def open(self, tenant_id: str, stream: TenantStream) -> None:
        self.server.open_tenant(
            tenant_id, stream.program, program_name=stream.name
        )

    def ingest(
        self, tenant_id: str, stream: TenantStream, seq: int
    ) -> tuple[list[dict], bool]:
        result = self.server.ingest(
            tenant_id, stream.batches[seq], seq=seq
        )
        return (
            [_normalize_selection(s) for s in result.selections],
            result.duplicate,
        )

    def expected_seq(self, tenant_id: str) -> int:
        return self.server.expected_seq(tenant_id)

    def close_tenant(self, tenant_id: str) -> tuple[list[dict], dict]:
        report = self.server.close_tenant(tenant_id)
        return (
            [_normalize_selection(s) for s in report.selections],
            _report_record(report),
        )

    def kill(self) -> None:
        """Abandon the instance as a crash would: no drain, no flush."""
        self.server.close()

    def drain(self) -> None:
        self.server.drain(timeout=30.0)
        self.server.close()

    def restart(self) -> None:
        self.server = PredictionServer.restore(
            self.state_dir, self.programs, self.config
        )

    def drop_next_ack(self) -> bool:
        return False  # in-process: the caller re-ingests directly

    def shutdown(self) -> None:
        """Release the instance; safe after a kill or drain."""
        self.server.close()

    def __enter__(self) -> "_InProcessDriver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class _TCPDriver(_InProcessDriver):
    def __init__(self, state_dir, programs, config):
        super().__init__(state_dir, programs, config)
        self._retry = RetryPolicy(
            max_retries=4, backoff_base=0.002, backoff_cap=0.05
        )
        self._serve()

    def _serve(self) -> None:
        self.tcp = ServingTCPServer(
            ("127.0.0.1", 0), self.server, self.programs_by_name()
        )
        start_background(self.tcp)
        self.client = ServingClient(
            "127.0.0.1", self.tcp.port, retry_policy=self._retry
        )

    def programs_by_name(self) -> dict:
        return dict(self.programs)

    def open(self, tenant_id: str, stream: TenantStream) -> None:
        self.client.open(tenant_id, stream.name)

    def ingest(self, tenant_id, stream, seq):
        reply = self.client.ingest(
            tenant_id, stream.payloads[seq], seq=seq
        )
        return (
            [_normalize_selection(s) for s in reply["selections"]],
            bool(reply["duplicate"]),
        )

    def expected_seq(self, tenant_id: str) -> int:
        return self.client.expected_seq(tenant_id)

    def close_tenant(self, tenant_id):
        reply = self.client.close_tenant(tenant_id)
        return (
            [_normalize_selection(s) for s in reply["selections"]],
            dict(reply["report"]),
        )

    def _stop_tcp(self) -> None:
        if self.tcp is None:
            return  # already stopped by a kill or drain
        self.client.close()
        self.tcp.shutdown()
        self.tcp.server_close()
        self.tcp = None

    def kill(self) -> None:
        self._stop_tcp()
        self.server.close()

    def drain(self) -> None:
        self._stop_tcp()
        self.server.drain(timeout=30.0)
        self.server.close()

    def restart(self) -> None:
        super().restart()
        self._serve()

    def drop_next_ack(self) -> bool:
        self.tcp.chaos_drop_next_reply = True
        return True

    def shutdown(self) -> None:
        self._stop_tcp()
        self.server.close()


def _corrupt_wal_tails(state_dir: str) -> None:
    """Flip the last byte of every shard WAL (a torn machine-crash tail)."""
    for wal in pathlib.Path(state_dir).glob("shard-*/wal.log"):
        raw = bytearray(wal.read_bytes())
        if len(raw) <= 8:  # header only: nothing to tear
            continue
        raw[-1] ^= 0xFF
        wal.write_bytes(bytes(raw))


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------
def _build_schedule(
    config: ChaosConfig,
) -> tuple[list[TenantStream], dict[str, TenantStream], list[tuple[str, int]]]:
    corpus = [
        build_stream(
            seed=config.seed + index,
            events=config.events_per_tenant,
            batch_events=config.batch_events,
            trips=config.trips,
        )
        for index in range(config.num_streams)
    ]
    tenants = {
        f"chaos-{index}": corpus[index % len(corpus)]
        for index in range(config.num_tenants)
    }
    longest = max(len(stream.batches) for stream in tenants.values())
    schedule = [
        (tenant_id, round_index)
        for round_index in range(longest)
        for tenant_id, stream in tenants.items()
        if round_index < len(stream.batches)
    ]
    return corpus, tenants, schedule


def _run_baseline(
    config: ChaosConfig,
    tenants: dict[str, TenantStream],
    schedule: list[tuple[str, int]],
) -> dict[str, str]:
    """The uninterrupted oracle: same schedule, plain in-memory server."""
    server = PredictionServer(config.server_config())
    for tenant_id, stream in tenants.items():
        server.open_tenant(tenant_id, stream.program)
    selections: dict[str, dict[int, list[dict]]] = {
        tenant_id: {} for tenant_id in tenants
    }
    for tenant_id, seq in schedule:
        result = server.ingest(
            tenant_id, tenants[tenant_id].batches[seq], seq=seq
        )
        selections[tenant_id][seq] = [
            _normalize_selection(s) for s in result.selections
        ]
    fingerprints = {}
    for tenant_id in tenants:
        report = server.close_tenant(tenant_id)
        fingerprints[tenant_id] = tenant_fingerprint(
            selections[tenant_id],
            [_normalize_selection(s) for s in report.selections],
            _report_record(report),
        )
    return fingerprints


def run_chaos(
    config: ChaosConfig,
    state_dir: str,
    obs: Registry | None = None,
) -> ChaosReport:
    """Run one chaos experiment and compare against the baseline.

    ``state_dir`` must be empty (the durable server under test owns
    it).  Returns a :class:`ChaosReport`; ``report.equivalent`` is the
    theorem — every tenant's recovered predictions byte-identical to
    the uninterrupted run's.
    """
    registry = get_registry(obs)
    corpus, tenants, schedule = _build_schedule(config)
    with registry.span("chaos.baseline"):
        baseline = _run_baseline(config, tenants, schedule)

    programs = {stream.name: stream.program for stream in corpus}
    driver_cls = _TCPDriver if config.tcp else _InProcessDriver
    driver = driver_cls(state_dir, programs, config.server_config())

    selections: dict[str, dict[int, list[dict]]] = {
        tenant_id: {} for tenant_id in tenants
    }
    cursors = {tenant_id: 0 for tenant_id in tenants}
    faults_fired: list[tuple[str, int]] = []
    restarts = 0
    replayed = 0
    duplicates = 0
    torn_bytes = 0

    def record(tenant_id: str, seq: int, sels: list[dict]) -> None:
        nonlocal replayed
        previous = selections[tenant_id].get(seq)
        if previous is not None:
            replayed += 1
            if previous != sels:
                raise ServingError(
                    f"replayed batch {seq} of {tenant_id!r} produced "
                    "different selections than the original ack"
                )
        selections[tenant_id][seq] = sels

    def recover() -> None:
        """Restore, then re-send everything past each tenant's durable
        point, asserting re-acked selections match the originals."""
        nonlocal restarts, torn_bytes
        driver.restart()
        restarts += 1
        # Each instance counts only the truncation its own open did.
        torn_bytes += int(
            driver.server.stats().get("truncated_bytes", 0)
        )
        for tenant_id in tenants:
            if cursors[tenant_id] == 0:
                continue
            start = driver.expected_seq(tenant_id)
            for seq in range(start, cursors[tenant_id]):
                sels, duplicate = driver.ingest(
                    tenant_id, tenants[tenant_id], seq
                )
                if duplicate:
                    continue
                record(tenant_id, seq, sels)

    # The driver holds WAL handles (and, over TCP, a serving thread);
    # leaving the block releases them however the run ends.
    with registry.span("chaos.replay"), driver:
        for tenant_id, stream in tenants.items():
            driver.open(tenant_id, stream)
        for step, (tenant_id, seq) in enumerate(schedule):
            for spec in config.faults.specs:
                if not spec.fires(step, 0):
                    continue
                if spec.kind == "crash":
                    driver.kill()
                    recover()
                elif spec.kind == "corrupt":
                    driver.kill()
                    _corrupt_wal_tails(state_dir)
                    recover()
                elif spec.kind == "interrupt":
                    driver.drain()
                    recover()
                # A "hang" is handled below, around the step's ingest.
                faults_fired.append((spec.kind, step))

            lost_ack = any(
                spec.kind == "hang" and spec.fires(step, 0)
                for spec in config.faults.specs
            )
            sels, _ = driver.ingest(tenant_id, tenants[tenant_id], seq)
            record(tenant_id, seq, sels)
            if lost_ack:
                # Deliver the batch a second time.  Over TCP the
                # server also eats the next reply, so the client's
                # retry policy reconnects and re-sends — two dropped
                # duplicates server-side; in-process it is one direct
                # re-ingest.  Either way: acked without effect.
                driver.drop_next_ack()
                before = int(driver.server.stats()["dropped"])
                again, duplicate = driver.ingest(
                    tenant_id, tenants[tenant_id], seq
                )
                if not duplicate or again:
                    raise ServingError(
                        "duplicate delivery was not acked without "
                        "effect"
                    )
                deduped = int(driver.server.stats()["dropped"]) - before
                if deduped < 1:
                    raise ServingError(
                        "lost-ack retry was not deduplicated"
                    )
                duplicates += 1
            cursors[tenant_id] = seq + 1

        fingerprints = {}
        mismatched = []
        for tenant_id in tenants:
            close_sels, report = driver.close_tenant(tenant_id)
            fingerprints[tenant_id] = tenant_fingerprint(
                selections[tenant_id], close_sels, report
            )
            if fingerprints[tenant_id] != baseline[tenant_id]:
                mismatched.append(tenant_id)

    chaos_report = ChaosReport(
        tenants=len(tenants),
        steps=len(schedule),
        faults_fired=tuple(faults_fired),
        restarts=restarts,
        replayed_batches=replayed,
        duplicates_acked=duplicates,
        truncated_bytes=torn_bytes,
        mismatched=tuple(sorted(mismatched)),
        fingerprints=fingerprints,
    )
    if registry.enabled:
        chaos = registry.child("chaos")
        chaos.counter("steps").inc(chaos_report.steps)
        chaos.counter("restarts").inc(chaos_report.restarts)
        chaos.counter("replayed_batches").inc(
            chaos_report.replayed_batches
        )
        chaos.counter("duplicates_acked").inc(
            chaos_report.duplicates_acked
        )
        chaos.gauge("equivalent").set(
            1.0 if chaos_report.equivalent else 0.0
        )
    return chaos_report


def schedule_steps(config: ChaosConfig) -> int:
    """Global schedule length for ``config``, for sizing fault plans."""
    return len(_build_schedule(config)[2])


def default_plan(steps: int) -> FaultPlan:
    """A representative plan scaled to the schedule length: a kill at
    ~25%, a torn tail at ~50%, a lost ack at ~65% and a rolling restart
    at ~80% of the run."""
    points = {
        "crash": max(1, steps // 4),
        "corrupt": max(2, steps // 2),
        "hang": max(3, (steps * 13) // 20),
        "interrupt": max(4, (steps * 4) // 5),
    }
    return FaultPlan(
        tuple(
            ChaosFault(kind=kind, batch=step)
            for kind, step in sorted(points.items())
        )
    )


def render_chaos_report(report: ChaosReport) -> str:
    """Human-readable summary of one chaos run."""
    fired = (
        ", ".join(f"{kind}@{step}" for kind, step in report.faults_fired)
        or "(none)"
    )
    lines = [
        f"tenants:            {report.tenants}",
        f"schedule steps:     {report.steps}",
        f"faults fired:       {fired}",
        f"server restarts:    {report.restarts}",
        f"batches replayed:   {report.replayed_batches}",
        f"duplicates acked:   {report.duplicates_acked}",
        f"WAL bytes torn:     {report.truncated_bytes}",
        "equivalence:        "
        + (
            "byte-identical to the uninterrupted run"
            if report.equivalent
            else "MISMATCH: " + ", ".join(report.mismatched)
        ),
    ]
    return "\n".join(lines)
