"""TCP transport: framing, request dispatch, error and backpressure
replies, client behavior."""

import signal
import threading

import numpy as np
import pytest

from repro.errors import (
    BackpressureError,
    ConnectionLostError,
    DrainingError,
    FrameTooLargeError,
    SequenceError,
    ServingError,
    WireFormatError,
)
from repro.resilience import RetryPolicy
from repro.serving import (
    PredictionServer,
    ServerConfig,
    ServingClient,
    ServingTCPServer,
    decode_batch,
    serve_until_drained,
    start_background,
    transport,
)
from repro.serving.loadgen import build_stream, standalone_outcome
from repro.serving.transport import (
    OP_CLOSE,
    decode_request,
    encode_request,
)

DELAY = 10


@pytest.fixture(scope="module")
def stream():
    return build_stream(seed=11, events=2_000, batch_events=128, trips=20)


@pytest.fixture()
def tcp(stream):
    prediction = PredictionServer(ServerConfig(num_shards=2, delay=DELAY))
    server = ServingTCPServer(
        ("127.0.0.1", 0), prediction, {stream.name: stream.program}
    )
    start_background(server)
    yield server
    server.shutdown()
    server.server_close()


def _client(tcp):
    return ServingClient("127.0.0.1", tcp.port, timeout=30.0)


# ----------------------------------------------------------------------
# Request framing
# ----------------------------------------------------------------------
def test_request_round_trip():
    frame = encode_request(OP_CLOSE, "tenant-π", b"operand")
    op, tenant_id, operand = decode_request(frame[4:])
    assert op == OP_CLOSE
    assert tenant_id == "tenant-π"
    assert operand == b"operand"


def test_request_truncation_rejected():
    frame = encode_request(OP_CLOSE, "tenant")
    with pytest.raises(WireFormatError, match="truncated"):
        decode_request(frame[4:8])
    with pytest.raises(WireFormatError, match="shorter"):
        decode_request(b"\x01")


# ----------------------------------------------------------------------
# Full round trips
# ----------------------------------------------------------------------
def test_tcp_stream_matches_standalone(tcp, stream):
    with _client(tcp) as client:
        client.open("t0", stream.name)
        selections = []
        for payload in stream.payloads:
            reply = client.ingest("t0", payload)
            selections.extend(reply["selections"])
        reply = client.close_tenant("t0")
        selections.extend(reply["selections"])
    offline = standalone_outcome(stream, delay=DELAY)
    assert [s["path_id"] for s in selections] == list(offline.predicted_ids)
    assert [s["time"] for s in selections] == list(offline.prediction_times)
    assert reply["report"]["events_ingested"] == stream.num_events
    assert reply["report"]["counter_space"] == offline.counter_space


def test_ingest_accepts_bytes_like_payloads(tcp, stream):
    with _client(tcp) as client:
        client.open("buf", stream.name)
        first = client.ingest("buf", bytearray(stream.payloads[0]))
        second = client.ingest("buf", memoryview(stream.payloads[1]))
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["events"] == len(decode_batch(stream.payloads[0]))
        client.close_tenant("buf")


def test_unknown_program_is_an_error_reply(tcp):
    with _client(tcp) as client:
        with pytest.raises(ServingError, match="unknown program"):
            client.open("t", "no-such-program")


def test_unknown_tenant_is_an_error_reply(tcp, stream):
    with _client(tcp) as client:
        with pytest.raises(ServingError, match="unknown tenant"):
            client.ingest("ghost", stream.payloads[0])


def test_corrupt_payload_is_an_error_reply_not_a_hang(tcp, stream):
    with _client(tcp) as client:
        client.open("t", stream.name)
        with pytest.raises(ServingError, match="truncated"):
            client.ingest("t", stream.payloads[0][:-1])
        # The connection survives the error reply.
        assert client.ingest("t", stream.payloads[0])["seq"] == 0
        client.close_tenant("t")


def test_unknown_opcode_is_an_error_reply(tcp):
    with _client(tcp) as client:
        client._wfile.write(encode_request(99, "t"))
        client._wfile.flush()
        with pytest.raises(ServingError, match="unknown opcode"):
            client._roundtrip(b"")  # reads the pending reply


def test_backpressure_travels_as_a_typed_reply(stream):
    capacity = len(decode_batch(stream.payloads[0]))
    applying = threading.Event()
    release = threading.Event()

    def apply_hook(tenant_id, batch):
        applying.set()
        assert release.wait(timeout=60)

    prediction = PredictionServer(
        ServerConfig(
            num_shards=1,
            delay=DELAY,
            max_queued_events=capacity,
            retry_after_seconds=0.125,
        ),
        apply_hook=apply_hook,
    )
    server = ServingTCPServer(
        ("127.0.0.1", 0), prediction, {stream.name: stream.program}
    )
    start_background(server)
    try:
        with _client(server) as c1, _client(server) as c2:
            c1.open("slow", stream.name)
            wedge = threading.Thread(
                target=c1.ingest,
                args=("slow", stream.payloads[0]),
                daemon=True,
            )
            wedge.start()
            assert applying.wait(timeout=60)
            # Overflow the bounded queue from a second connection: the
            # rejection crosses the wire as a typed backpressure reply.
            with pytest.raises(BackpressureError) as rejected:
                c2.ingest("slow", stream.payloads[1])
            assert rejected.value.retry_after_seconds == 0.125
            assert rejected.value.capacity == capacity
            release.set()
            wedge.join()
    finally:
        release.set()
        server.shutdown()
        server.server_close()


def test_two_connections_share_tenant_state(tcp, stream):
    with _client(tcp) as c1, _client(tcp) as c2:
        c1.open("shared", stream.name)
        c1.ingest("shared", stream.payloads[0])
        reply = c2.ingest("shared", stream.payloads[1])
        assert reply["seq"] == 1
        report = c2.close_tenant("shared")["report"]
        assert report["batches_ingested"] == 2


def test_parallel_tcp_clients_stay_isolated(tcp, stream):
    offline = standalone_outcome(stream, delay=DELAY)
    results = {}
    errors = []
    barrier = threading.Barrier(4)

    def replay(tid):
        try:
            with _client(tcp) as client:
                client.open(tid, stream.name)
                barrier.wait()
                predicted = []
                for payload in stream.payloads:
                    predicted.extend(
                        s["path_id"]
                        for s in client.ingest(tid, payload)["selections"]
                    )
                predicted.extend(
                    s["path_id"]
                    for s in client.close_tenant(tid)["selections"]
                )
                results[tid] = predicted
        except BaseException as error:  # pragma: no cover - fail loud
            errors.append(error)

    threads = [
        threading.Thread(target=replay, args=(f"par-{i}",), daemon=True)
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    expected = list(np.asarray(offline.predicted_ids))
    for tid, predicted in results.items():
        assert predicted == expected, tid


# ----------------------------------------------------------------------
# Exactly-once sequencing, drain, frame cap, reconnection
# ----------------------------------------------------------------------
def test_explicit_seq_duplicate_and_gap_over_wire(tcp, stream):
    with _client(tcp) as client:
        client.open("seq", stream.name)
        first = client.ingest("seq", stream.payloads[0], seq=0)
        assert first["duplicate"] is False
        again = client.ingest("seq", stream.payloads[0], seq=0)
        assert again["duplicate"] is True
        assert again["selections"] == []
        with pytest.raises(SequenceError) as excinfo:
            client.ingest("seq", stream.payloads[1], seq=5)
        assert excinfo.value.expected == 1
        assert excinfo.value.got == 5
        # The connection survives the typed rejection.
        assert client.ingest("seq", stream.payloads[1], seq=1)["seq"] == 1
        client.close_tenant("seq")


def test_expected_seq_op(tcp, stream):
    with _client(tcp) as client:
        assert client.expected_seq("fresh") == 0
        client.open("fresh", stream.name)
        client.ingest("fresh", stream.payloads[0], seq=0)
        client.ingest("fresh", stream.payloads[1], seq=1)
        assert client.expected_seq("fresh") == 2
        client.close_tenant("fresh")


def test_draining_travels_as_a_typed_reply(stream):
    prediction = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    server = ServingTCPServer(
        ("127.0.0.1", 0), prediction, {stream.name: stream.program}
    )
    start_background(server)
    try:
        prediction.drain(timeout=5.0)
        with _client(server) as client:
            with pytest.raises(DrainingError) as excinfo:
                client.open("late", stream.name)
            assert excinfo.value.retry_after_seconds > 0
    finally:
        server.shutdown()
        server.server_close()


def test_serve_accepts_only_once_the_drain_handler_is_in(
    stream, monkeypatch
):
    # A client the server has answered may signal it at once: that
    # signal must find the drain handler, not the default exit.
    prediction = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    server = ServingTCPServer(
        ("127.0.0.1", 0), prediction, {stream.name: stream.program}
    )
    unguarded = signal.getsignal(signal.SIGTERM)

    def start_then_signal(server):
        handler = signal.getsignal(signal.SIGTERM)
        assert handler != unguarded, "accepting before the drain handler"
        thread = start_background(server)
        handler(signal.SIGTERM, None)
        return thread

    monkeypatch.setattr(transport, "start_background", start_then_signal)
    try:
        assert serve_until_drained(server, poll_interval=0.01) == 0
    finally:
        server.server_close()


def test_oversized_frame_is_a_typed_reply(stream):
    prediction = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    server = ServingTCPServer(
        ("127.0.0.1", 0),
        prediction,
        {stream.name: stream.program},
        max_frame_bytes=256,
    )
    start_background(server)
    try:
        with _client(server) as client:
            client.open("big", stream.name)
            with pytest.raises(FrameTooLargeError) as excinfo:
                client.ingest("big", stream.payloads[0])
            assert excinfo.value.limit == 256
            assert excinfo.value.declared > 256
        # The cap poisons nothing: small frames on a new connection work.
        with _client(server) as client:
            assert client.expected_seq("big") == 0
    finally:
        server.shutdown()
        server.server_close()


def test_lost_reply_retried_and_deduplicated(tcp, stream):
    client = ServingClient(
        "127.0.0.1",
        tcp.port,
        timeout=30.0,
        retry_policy=RetryPolicy(
            max_retries=3, backoff_base=0.002, backoff_cap=0.02
        ),
    )
    with client:
        client.open("lossy", stream.name)
        client.ingest("lossy", stream.payloads[0], seq=0)
        # The server eats the next reply: the batch is applied but the
        # ack is lost, so the client reconnects and re-sends — and the
        # re-send must be acked as a duplicate, not applied twice.
        tcp.chaos_drop_next_reply = True
        reply = client.ingest("lossy", stream.payloads[1], seq=1)
        assert reply["duplicate"] is True
        assert client.expected_seq("lossy") == 2
        client.close_tenant("lossy")


def test_auto_seq_ingest_fails_fast_on_lost_connection(stream):
    prediction = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    server = ServingTCPServer(
        ("127.0.0.1", 0), prediction, {stream.name: stream.program}
    )
    start_background(server)
    client = ServingClient(
        "127.0.0.1",
        server.port,
        timeout=5.0,
        retry_policy=RetryPolicy(
            max_retries=3, backoff_base=0.002, backoff_cap=0.02
        ),
    )
    client.open("t", stream.name)
    server.shutdown()
    server.server_close()
    prediction.close()
    client._teardown()  # the established connection dies with the box
    # Auto-assigned sequence numbers are not idempotent: a lost ack
    # could mean the batch was applied, so the client must not re-send.
    with pytest.raises(ConnectionLostError, match="not retryable") as excinfo:
        client.ingest("t", stream.payloads[0])
    assert excinfo.value.attempts == 1
    client.close()


def test_idempotent_ops_exhaust_the_retry_budget(stream):
    prediction = PredictionServer(ServerConfig(num_shards=1, delay=DELAY))
    server = ServingTCPServer(
        ("127.0.0.1", 0), prediction, {stream.name: stream.program}
    )
    start_background(server)
    client = ServingClient(
        "127.0.0.1",
        server.port,
        timeout=5.0,
        retry_policy=RetryPolicy(
            max_retries=2, backoff_base=0.002, backoff_cap=0.02
        ),
    )
    client.open("t", stream.name)
    server.shutdown()
    server.server_close()
    prediction.close()
    client._teardown()
    with pytest.raises(ConnectionLostError) as excinfo:
        client.ingest("t", stream.payloads[0], seq=0)
    assert excinfo.value.attempts == 3  # initial try + max_retries
    client.close()
