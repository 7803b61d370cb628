"""Tests for ``repro.service.transport``: the frame codec and the worker pipe.

Covers the codec round trip (hypothesis) and every corruption class of
the frame format — truncation, checksum mismatch, bad magic, oversize, a
payload naming a global the protocol never sends — each of which
surfaces as a typed ``FrameError``, never as a pickle exception; and the
pipe's mapping of a closed peer onto ``TransportClosed``.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.procpool import PlanDirectory
from repro.service.transport import (
    DEFAULT_MAX_FRAME,
    HEADER,
    MAGIC,
    FrameError,
    PipeTransport,
    TransportClosed,
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


class TestPipeTransport:
    def test_round_trip_and_close_mapping(self):
        import multiprocessing

        a, b = multiprocessing.Pipe(duplex=True)
        left, right = PipeTransport(a), PipeTransport(b)
        left.send(("ping",))
        assert right.recv() == ("ping",)
        left.close()
        with pytest.raises(TransportClosed):
            right.recv()
        right.close()
