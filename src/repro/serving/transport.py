"""TCP transport for the prediction server.

A deliberately thin request/reply protocol so the in-process
:class:`~repro.serving.server.PredictionServer` can run as a real
long-lived network service (``repro serve``).  Every message is one
length-prefixed frame::

    u32  frame length (little endian, body bytes)
    u8   opcode          (1=open, 2=ingest, 3=close, 4=seq)
    u16  tenant id length
    ...  tenant id (utf-8)
    ...  operand — open: program name (utf-8, resolved against the
         server's program registry); ingest: a u64 sequence number
         (``SEQ_AUTO`` for server-assigned) followed by a wire-encoded
         EventBatch (see repro.serving.wire); close and seq: empty

Replies are a length-prefixed UTF-8 JSON object whose ``status`` field
is the reply's type: ``"ok"`` with operation results,
``"backpressure"`` / ``"draining"`` for admission rejections (both
carry ``retry_after``), ``"sequence"`` for an inadmissible sequence
number (carries ``expected``/``got``/``reason``), ``"frame"`` when a
request frame exceeded the server's size cap, and ``"error"`` for every
other failure.  Clients never see a hung connection because of a full
queue — every rejection is an immediate, explicit reply, and
:class:`ServingClient` raises each one as its typed exception.

Exactly-once over TCP: a client that tags batches with explicit
sequence numbers may retry any of them blindly — across reconnects and
server restarts — until acknowledged; the server acks already-applied
numbers without effect.  :class:`ServingClient` automates the retry
with a bounded :class:`~repro.resilience.RetryPolicy` for idempotent
operations (open, explicit-seq ingest, seq query) and raises
:class:`~repro.errors.ConnectionLostError` once the budget is spent or
the operation is not safe to repeat.

Programs do not travel over the wire: tenants name a program from the
registry the server was started with (e.g. the generated corpus), which
keeps the transport free of code serialization.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time

from repro.cfg.program import Program
from repro.errors import (
    BackpressureError,
    ConnectionLostError,
    DrainingError,
    FrameTooLargeError,
    ReproError,
    SequenceError,
    ServingError,
    WireFormatError,
)
from repro.resilience import RetryPolicy, interrupt_guard
from repro.serving.server import PredictionServer, TenantReport
from repro.serving.session import HotPathSelection
from repro.serving.wire import encode_batch
from repro.trace.batch import EventBatch

OP_OPEN = 1
OP_INGEST = 2
OP_CLOSE = 3
OP_SEQ = 4

_LENGTH = struct.Struct("<I")
_PREFIX = struct.Struct("<BH")
_SEQ = struct.Struct("<Q")

#: Ingest sequence sentinel: "server assigns the next number".  Such a
#: request is *not* idempotent — a retry would apply the batch twice.
SEQ_AUTO = 2**64 - 1

#: Default upper bound on one frame, rejecting absurd length prefixes
#: before allocation (64 MiB is far beyond any sane batch).
MAX_FRAME_BYTES = 64 << 20


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_request(op: int, tenant_id: str, operand: bytes = b"") -> bytes:
    """One request frame, length prefix included."""
    tenant = tenant_id.encode("utf-8")
    body = _PREFIX.pack(op, len(tenant)) + tenant + operand
    return _LENGTH.pack(len(body)) + body


def encode_ingest(
    tenant_id: str, payload: bytes, seq: int | None = None
) -> bytes:
    """An ingest frame carrying ``seq`` (``None`` → :data:`SEQ_AUTO`)."""
    wire_seq = SEQ_AUTO if seq is None else seq
    return encode_request(
        OP_INGEST, tenant_id, _SEQ.pack(wire_seq) + payload
    )


def decode_request(body: bytes) -> tuple[int, str, bytes]:
    """Split a request body into (opcode, tenant id, operand)."""
    if len(body) < _PREFIX.size:
        raise WireFormatError(
            f"request body of {len(body)} bytes is shorter than the "
            f"{_PREFIX.size}-byte prefix"
        )
    op, tenant_len = _PREFIX.unpack_from(body, 0)
    end = _PREFIX.size + tenant_len
    if len(body) < end:
        raise WireFormatError("request truncated inside the tenant id")
    tenant_id = body[_PREFIX.size : end].decode("utf-8")
    return op, tenant_id, body[end:]


def _read_exactly(stream, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on a clean EOF at a frame
    boundary, error on EOF mid-frame."""
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise WireFormatError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    stream, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes | None:
    """Read one length-prefixed frame body (None on clean EOF).

    A length prefix beyond ``max_frame_bytes`` raises
    :class:`~repro.errors.FrameTooLargeError` *before any allocation or
    body read* — the declared size is never trusted with memory.
    """
    prefix = _read_exactly(stream, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    body = _read_exactly(stream, length)
    if body is None:
        raise WireFormatError("connection closed mid-frame")
    return body


def write_frame(stream, body: bytes) -> None:
    stream.write(_LENGTH.pack(len(body)) + body)
    stream.flush()


def _selection_record(selection: HotPathSelection) -> dict:
    return {
        "path_id": selection.path_id,
        "time": selection.time,
        "head_uid": selection.head_uid,
        "blocks": list(selection.blocks),
        "num_instructions": selection.num_instructions,
    }


def _report_record(report: TenantReport) -> dict:
    return {
        "events_ingested": report.events_ingested,
        "batches_ingested": report.batches_ingested,
        "flow": report.flow,
        "num_paths": report.num_paths,
        "num_predictions": report.outcome.num_predictions,
        "counter_space": report.counter_space,
        "state_bytes": report.state_bytes,
        "evictions": report.evictions,
    }


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class ServingTCPServer(socketserver.ThreadingTCPServer):
    """One thread per connection in front of a :class:`PredictionServer`.

    ``programs`` is the registry tenants may open against (name →
    :class:`Program`).  ``max_frame_bytes`` caps how large a length
    prefix the server will honor.

    The two ``chaos_*`` knobs are deterministic fault injection for the
    serving chaos harness (production leaves them ``None``): counting
    every frame read across all connections, ``chaos_drop_every=N``
    abruptly closes the connection instead of handling every Nth frame
    (the request is lost before dispatch), and
    ``chaos_drop_reply_every=N`` closes it after dispatch but before
    the reply (the work happened, the ack is lost — the retried request
    must be deduplicated).  ``chaos_drop_next_reply`` drops exactly one
    reply and self-clears, for plan-keyed injection.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        server: PredictionServer,
        programs: dict[str, Program],
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self.prediction_server = server
        self.programs = dict(programs)
        self.max_frame_bytes = max_frame_bytes
        self.chaos_drop_every: int | None = None
        self.chaos_drop_reply_every: int | None = None
        self.chaos_drop_next_reply = False
        self._chaos_lock = threading.Lock()
        self._frames_read = 0
        self._replies_ready = 0
        super().__init__(address, _RequestHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def _chaos_drop_request(self) -> bool:
        if self.chaos_drop_every is None:
            return False
        with self._chaos_lock:
            self._frames_read += 1
            return self._frames_read % self.chaos_drop_every == 0

    def _chaos_drop_reply(self) -> bool:
        with self._chaos_lock:
            if self.chaos_drop_next_reply:
                self.chaos_drop_next_reply = False
                return True
            if self.chaos_drop_reply_every is None:
                return False
            self._replies_ready += 1
            return self._replies_ready % self.chaos_drop_reply_every == 0


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: ServingTCPServer = self.server  # type: ignore[assignment]
        prediction = server.prediction_server
        while True:
            try:
                body = read_frame(self.rfile, server.max_frame_bytes)
            except FrameTooLargeError as oversized:
                # The body was never read, so the stream cannot be
                # resynchronized: reply with the typed rejection, then
                # drop the connection.
                self._reply(
                    {
                        "status": "frame",
                        "error": str(oversized),
                        "declared": oversized.declared,
                        "limit": oversized.limit,
                    }
                )
                return
            except WireFormatError:
                return  # peer vanished or spoke garbage framing
            if body is None:
                return
            if server._chaos_drop_request():
                return  # injected fault: request lost before dispatch
            try:
                reply = self._dispatch(server, prediction, body)
            except BackpressureError as pushback:
                reply = {
                    "status": "backpressure",
                    "retry_after": pushback.retry_after_seconds,
                    "queued_events": pushback.queued_events,
                    "capacity": pushback.capacity,
                }
            except DrainingError as draining:
                reply = {
                    "status": "draining",
                    "retry_after": draining.retry_after_seconds,
                    "error": str(draining),
                }
            except SequenceError as sequence:
                reply = {
                    "status": "sequence",
                    "tenant": sequence.tenant_id,
                    "expected": sequence.expected,
                    "got": sequence.got,
                    "reason": sequence.reason,
                    "error": str(sequence),
                }
            except ReproError as error:
                reply = {"status": "error", "error": str(error)}
            if server._chaos_drop_reply():
                return  # injected fault: work done, ack lost
            if not self._reply(reply):
                return

    def _reply(self, reply: dict) -> bool:
        try:
            write_frame(
                self.wfile, json.dumps(reply).encode("utf-8")
            )
        except OSError:
            return False
        return True

    def _dispatch(
        self,
        server: "ServingTCPServer",
        prediction: PredictionServer,
        body: bytes,
    ) -> dict:
        op, tenant_id, operand = decode_request(body)
        if op == OP_OPEN:
            name = operand.decode("utf-8")
            program = server.programs.get(name)
            if program is None:
                raise ServingError(
                    f"unknown program {name!r}; registered: "
                    f"{', '.join(sorted(server.programs)) or '(none)'}"
                )
            prediction.open_tenant(tenant_id, program, program_name=name)
            return {"status": "ok", "opened": tenant_id}
        if op == OP_INGEST:
            if len(operand) < _SEQ.size:
                raise WireFormatError(
                    "ingest operand shorter than its sequence number"
                )
            (wire_seq,) = _SEQ.unpack_from(operand, 0)
            seq = None if wire_seq == SEQ_AUTO else wire_seq
            result = prediction.ingest(
                tenant_id, operand[_SEQ.size :], seq=seq
            )
            return {
                "status": "ok",
                "events": result.events,
                "seq": result.seq,
                "duplicate": result.duplicate,
                "selections": [
                    _selection_record(s) for s in result.selections
                ],
            }
        if op == OP_CLOSE:
            report = prediction.close_tenant(tenant_id)
            return {
                "status": "ok",
                "selections": [
                    _selection_record(s) for s in report.selections
                ],
                "report": _report_record(report),
            }
        if op == OP_SEQ:
            return {
                "status": "ok",
                "expected_seq": prediction.expected_seq(tenant_id),
            }
        raise ServingError(f"unknown opcode {op}")


def serve_until_drained(
    server: ServingTCPServer,
    drain_timeout: float | None = None,
    poll_interval: float = 0.25,
) -> int:
    """Serve until SIGINT/SIGTERM, then drain; return the exit code.

    The accept loop runs on a background thread while the main thread
    (inside :func:`~repro.resilience.interrupt_guard`) waits for the
    first signal.  On that signal the server stops accepting, drains
    the prediction server — every admitted batch applied, every
    resident tenant checkpointed, WALs fsynced — and returns ``0``.  A
    second signal while draining forces an immediate ``130`` (state on
    disk stays consistent: whatever was checkpointed before the force
    is exactly what :meth:`~repro.serving.server.PredictionServer.restore`
    will see).  A drain that exceeds ``drain_timeout`` propagates
    :class:`~repro.errors.ServingError`.
    """
    prediction = server.prediction_server
    thread = start_background(server)
    with interrupt_guard() as flag:
        try:
            while not flag.fired:
                time.sleep(poll_interval)
        except KeyboardInterrupt:
            server.shutdown()
            return 130
        server.shutdown()
        try:
            prediction.drain(timeout=drain_timeout)
        except KeyboardInterrupt:
            return 130
    server.server_close()
    thread.join(timeout=5.0)
    prediction.close()
    return 0


def start_background(server: ServingTCPServer) -> threading.Thread:
    """Serve on a daemon thread (tests and the in-process loadgen)."""
    thread = threading.Thread(
        target=server.serve_forever, name="serving-tcp", daemon=True
    )
    thread.start()
    return thread


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class ServingClient:
    """Blocking client for one connection to a :class:`ServingTCPServer`.

    Raises the same typed exceptions as the in-process API:
    :class:`~repro.errors.BackpressureError` and
    :class:`~repro.errors.DrainingError` for admission rejections,
    :class:`~repro.errors.SequenceError` for inadmissible sequence
    numbers and :class:`~repro.errors.ServingError` for other
    server-side failures.

    With a ``retry_policy``, transport failures (reset, timeout, torn
    reply) on *idempotent* operations — open, explicit-seq ingest and
    the seq query — trigger a bounded reconnect-and-retry on the
    policy's deterministic backoff schedule;
    :class:`~repro.errors.ConnectionLostError` is raised once the
    budget is spent.  Auto-seq ingest and close are not safe to repeat
    and fail immediately.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 10.0,
        retry_policy: RetryPolicy | None = None,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry_policy
        self._op_index = 0
        self._sock: socket.socket | None = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def _teardown(self) -> None:
        if self._sock is None:
            return
        for closer in (self._rfile.close, self._wfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
        self._sock = None

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _roundtrip(self, frame: bytes, idempotent: bool = False) -> dict:
        self._op_index += 1
        op_index = self._op_index
        attempts = 0
        while True:
            attempts += 1
            try:
                if self._sock is None:
                    self._connect()
                self._wfile.write(frame)
                self._wfile.flush()
                body = read_frame(self._rfile)
                if body is None:
                    raise WireFormatError(
                        "server closed the connection before replying"
                    )
                break
            except (OSError, WireFormatError) as failure:
                self._teardown()
                budget = (
                    self._retry.max_retries
                    if (self._retry is not None and idempotent)
                    else 0
                )
                if attempts > budget:
                    raise ConnectionLostError(
                        "connection to the prediction server lost"
                        + ("" if idempotent else " (operation not retryable)"),
                        attempts=attempts,
                    ) from failure
                time.sleep(
                    self._retry.backoff_seconds(op_index, attempts)
                )
        reply = json.loads(body.decode("utf-8"))
        status = reply.get("status")
        if status == "ok":
            return reply
        if status == "backpressure":
            raise BackpressureError(
                tenant_id="",
                queued_events=int(reply.get("queued_events", 0)),
                capacity=int(reply.get("capacity", 0)),
                retry_after_seconds=float(reply.get("retry_after", 0.05)),
            )
        if status == "draining":
            raise DrainingError(float(reply.get("retry_after", 0.05)))
        if status == "sequence":
            raise SequenceError(
                reply.get("tenant", ""),
                expected=int(reply.get("expected", 0)),
                got=int(reply.get("got", 0)),
                reason=reply.get("reason", "gap"),
            )
        if status == "frame":
            raise FrameTooLargeError(
                int(reply.get("declared", 0)), int(reply.get("limit", 0))
            )
        raise ServingError(reply.get("error", "unknown server error"))

    def open(self, tenant_id: str, program_name: str) -> dict:
        return self._roundtrip(
            encode_request(
                OP_OPEN, tenant_id, program_name.encode("utf-8")
            ),
            idempotent=True,
        )

    def ingest(
        self,
        tenant_id: str,
        batch: EventBatch | bytes,
        seq: int | None = None,
    ) -> dict:
        operand = (
            encode_batch(batch)
            if isinstance(batch, EventBatch)
            else bytes(batch)
        )
        return self._roundtrip(
            encode_ingest(tenant_id, operand, seq=seq),
            idempotent=seq is not None,
        )

    def expected_seq(self, tenant_id: str) -> int:
        reply = self._roundtrip(
            encode_request(OP_SEQ, tenant_id), idempotent=True
        )
        return int(reply["expected_seq"])

    def close_tenant(self, tenant_id: str) -> dict:
        return self._roundtrip(encode_request(OP_CLOSE, tenant_id))
