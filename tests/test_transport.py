"""Tests for the framed wire transport (``repro.service.transport``).

Covers the codec round trip (hypothesis), every corruption class of the
frame format — truncation, checksum mismatch, bad magic, oversize, a
payload naming a global the protocol never sends — and
the contract that matters to supervision: each of them surfaces as a
typed ``FrameError`` (and, through a remote worker handle, as
``ReplicaFailure(kind="transport")``), never as a hang or a pickle
exception.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import zlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.pool import ReplicaFailure
from repro.service.procpool import PlanDirectory, ReplicaClient, attach
from repro.service.transport import (
    DEFAULT_MAX_FRAME,
    HEADER,
    MAGIC,
    FrameError,
    PipeTransport,
    SocketTransport,
    TransportClosed,
    TransportTimeout,
    decode_header,
    decode_message,
    encode_message,
)
from repro.service.wire import QuerySpec, ResultSpec

# Messages shaped like the worker protocol: tuples of primitives and
# small containers, all picklable.
message_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=40),
        st.binary(max_size=64),
        st.booleans(),
        st.none(),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)
wire_messages = st.tuples(
    st.sampled_from(["plan", "query", "result", "ok", "heartbeat"]), message_values
)


class TestFrameCodec:
    @given(message=wire_messages)
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip(self, message):
        assert decode_message(encode_message(message)) == message

    @given(message=wire_messages, cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_any_truncation_is_typed(self, message, cut):
        """Every proper prefix decodes to FrameError, never a pickle error."""
        frame = encode_message(message)
        prefix = frame[: min(cut, len(frame) - 1)]
        with pytest.raises(FrameError) as excinfo:
            decode_message(prefix)
        assert excinfo.value.reason == "truncated"

    @given(
        message=wire_messages,
        offset=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_any_payload_corruption_is_caught(self, message, offset, flip):
        frame = bytearray(encode_message(message))
        payload_len = len(frame) - HEADER.size
        index = HEADER.size + (offset % payload_len)
        frame[index] ^= flip
        with pytest.raises(FrameError) as excinfo:
            decode_message(bytes(frame))
        assert excinfo.value.reason == "checksum"

    def test_bad_magic_is_desync(self):
        frame = bytearray(encode_message(("ping",)))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError) as excinfo:
            decode_message(bytes(frame))
        assert excinfo.value.reason == "magic"

    def test_oversize_refused_from_header_alone(self):
        """A huge declared length is refused before any allocation."""
        header = HEADER.pack(MAGIC, DEFAULT_MAX_FRAME + 1, 0)
        with pytest.raises(FrameError) as excinfo:
            decode_header(header)
        assert excinfo.value.reason == "oversize"

    def test_oversize_refused_on_encode(self):
        with pytest.raises(FrameError) as excinfo:
            encode_message(b"x" * 2048, max_frame_bytes=1024)
        assert excinfo.value.reason == "oversize"

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload

    def test_exploit_frame_runs_nothing(self, tmp_path):
        """A well-formed frame whose pickle calls a function on load is
        refused before the call: the wire carries data, never code."""
        marker = tmp_path / "executed"

        class Exploit:
            def __reduce__(self):
                return (os.mkdir, (str(marker),))

        with pytest.raises(FrameError) as excinfo:
            decode_message(self._frame(pickle.dumps(("query", Exploit()))))
        assert excinfo.value.reason == "payload"
        assert not marker.exists()

    @pytest.mark.parametrize(
        "payload",
        [pickle.dumps(eval), pickle.dumps(("plan", PlanDirectory)), b"not a pickle"],
        ids=["builtins.eval", "repro-class-off-the-list", "garbage"],
    )
    def test_foreign_payloads_are_typed_errors(self, payload):
        with pytest.raises(FrameError) as excinfo:
            decode_message(self._frame(payload))
        assert excinfo.value.reason == "payload"

    def test_the_three_wire_classes_pass(self):
        ingress = (("sw", 1),)
        message = (
            QuerySpec(7, "distributions", (ingress,)),
            ResultSpec(7, ((ingress, ((None, Fraction(1, 3)),)),)),
        )
        assert decode_message(encode_message(message)) == message

    def test_header_layout_is_stable(self):
        # The wire format is a compatibility surface: magic, u32 length,
        # u32 crc, big-endian.
        assert HEADER.size == 12
        frame = encode_message(("ping",))
        magic, length, _crc = struct.unpack("!4sII", frame[:12])
        assert magic == b"RPF1"
        assert length == len(frame) - 12


def _socket_pair():
    a, b = socket.socketpair()
    return SocketTransport(a), SocketTransport(b)


class TestSocketTransport:
    def test_round_trip_and_threaded_sends_interleave_whole_frames(self):
        left, right = _socket_pair()
        try:
            messages = [("result", i, {"pid": i}) for i in range(50)]
            threads = [
                threading.Thread(target=left.send, args=(m,)) for m in messages
            ]
            for thread in threads:
                thread.start()
            received = [right.recv(timeout=5.0) for _ in messages]
            for thread in threads:
                thread.join()
            # Frames never interleave bytes; only ordering is unspecified.
            assert sorted(received) == sorted(messages)
        finally:
            left.close()
            right.close()

    def test_eof_at_boundary_is_closed_not_corrupt(self):
        left, right = _socket_pair()
        left.close()
        try:
            with pytest.raises(TransportClosed):
                right.recv(timeout=5.0)
        finally:
            right.close()

    def test_eof_mid_frame_is_truncated(self):
        a, b = socket.socketpair()
        right = SocketTransport(b)
        try:
            frame = encode_message(("result", list(range(100))))
            a.sendall(frame[: len(frame) - 5])
            a.close()
            with pytest.raises(FrameError) as excinfo:
                right.recv(timeout=5.0)
            assert excinfo.value.reason == "truncated"
        finally:
            right.close()

    def test_corrupted_frame_is_checksum_failure(self):
        left, right = _socket_pair()
        try:
            left.send_corrupted(("result", 1, {}))
            with pytest.raises(FrameError) as excinfo:
                right.recv(timeout=5.0)
            assert excinfo.value.reason == "checksum"
        finally:
            left.close()
            right.close()

    def test_oversize_frame_refused_before_body(self):
        a, b = socket.socketpair()
        right = SocketTransport(b, max_frame_bytes=1024)
        try:
            # Declare 1 GiB; send only the header. The receiver must
            # refuse from the header alone instead of trying to read
            # (or allocate) the body.
            a.sendall(HEADER.pack(MAGIC, 1 << 30, 0))
            with pytest.raises(FrameError) as excinfo:
                right.recv(timeout=5.0)
            assert excinfo.value.reason == "oversize"
        finally:
            a.close()
            right.close()

    def test_recv_timeout_is_typed(self):
        left, right = _socket_pair()
        try:
            with pytest.raises(TransportTimeout):
                right.recv(timeout=0.05)
        finally:
            left.close()
            right.close()


class TestPipeTransport:
    def test_round_trip_and_close_mapping(self):
        import multiprocessing

        a, b = multiprocessing.Pipe(duplex=True)
        left, right = PipeTransport(a), PipeTransport(b)
        left.send(("ping",))
        assert right.recv(timeout=5.0) == ("ping",)
        left.close()
        with pytest.raises(TransportClosed):
            right.recv(timeout=5.0)
        right.close()


# ---------------------------------------------------------------------------
# Corruption → ReplicaFailure(kind="transport") through a replica client
# ---------------------------------------------------------------------------
class _FakeHost:
    """A minimal host daemon: accepts one client, runs ``script(transport)``."""

    def __init__(self, script):
        self._script = script
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        sock, _ = self._listener.accept()
        transport = SocketTransport(sock)
        try:
            self._script(transport)
        finally:
            transport.close()

    def close(self):
        self._thread.join(timeout=5.0)
        self._listener.close()


def _attach_then(script):
    """A fake-host script: answer the attach handshake, then ``script``."""

    def run(transport):
        hello = transport.recv(timeout=5.0)
        assert hello[0] == "attach"
        transport.send(("attached", {"pid": 4242, "worker": hello[1]["replica"]}))
        script(transport)

    return run


def _client(host, shard_timeout: float = 5.0) -> ReplicaClient:
    """A replica client attached to ``host`` the way remote sources attach."""
    return ReplicaClient(
        0, PlanDirectory(None), attach(host.address, 0), shard_timeout=shard_timeout
    )


class TestRemoteHandleFailureTaxonomy:
    def _handle(self, host) -> ReplicaClient:
        return _client(host)

    def test_garbled_reply_is_transport_failure(self):
        def script(transport):
            transport.recv(timeout=5.0)  # the ping request
            transport.send_corrupted(("ok", {"pid": 4242}))

        host = _FakeHost(_attach_then(script))
        handle = self._handle(host)
        try:
            with pytest.raises(ReplicaFailure) as excinfo:
                handle.ping()
            assert excinfo.value.kind == "transport"
            assert handle.failure is excinfo.value
        finally:
            handle.close()
            host.close()

    def test_truncated_reply_is_transport_failure(self):
        def script(transport):
            transport.recv(timeout=5.0)
            frame = encode_message(("ok", {"pid": 4242, "blob": b"x" * 4096}))
            transport._sock.sendall(frame[: len(frame) - 10])
            transport._sock.shutdown(socket.SHUT_WR)

        host = _FakeHost(_attach_then(script))
        handle = self._handle(host)
        try:
            with pytest.raises(ReplicaFailure) as excinfo:
                handle.ping()
            assert excinfo.value.kind == "transport"
        finally:
            handle.close()
            host.close()

    def test_clean_close_is_crash_failure(self):
        def script(transport):
            transport.recv(timeout=5.0)
            # close without answering: EOF at a frame boundary

        host = _FakeHost(_attach_then(script))
        handle = self._handle(host)
        try:
            with pytest.raises(ReplicaFailure) as excinfo:
                handle.ping()
            assert excinfo.value.kind == "crash"
        finally:
            handle.close()
            host.close()

    def test_worker_death_notice_carries_exit_code(self):
        def script(transport):
            transport.recv(timeout=5.0)
            transport.send(("worker-died", 137))

        host = _FakeHost(_attach_then(script))
        handle = self._handle(host)
        try:
            with pytest.raises(ReplicaFailure) as excinfo:
                handle.ping()
            assert excinfo.value.kind == "crash"
            assert handle.exit_code == 137
        finally:
            handle.close()
            host.close()

    def test_unanswered_request_is_timeout_not_hang(self):
        def script(transport):
            transport.recv(timeout=10.0)  # swallow the ping, never answer
            # Hold the connection open until the client hangs up.
            try:
                transport.recv(timeout=10.0)
            except Exception:
                pass

        host = _FakeHost(_attach_then(script))
        handle = _client(host, shard_timeout=0.3)
        try:
            with pytest.raises(ReplicaFailure) as excinfo:
                handle.ping()
            assert excinfo.value.kind == "timeout"
        finally:
            handle.close()
            host.close()

    def test_refused_attach_raises_transport_error(self):
        def script(transport):
            transport.recv(timeout=5.0)
            transport.send(("error", "at-capacity"))

        from repro.service.transport import TransportError

        host = _FakeHost(script)
        with pytest.raises(TransportError, match="at-capacity"):
            attach(host.address, 0)
        host.close()
