"""Fuzz the JSON-lines server's line parser: every line gets one typed reply.

One in-process :class:`~repro.service.QueryServer` serves every example.
Each example opens a connection, sends one generated line and then a
valid probe query, and half-closes its side.  The server flushes every
reply before it closes the connection, so reading to EOF collects them
all.  The property: the generated line got exactly one reply, its error
code (if any) is a documented one, and the probe on the same connection
was answered.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.service import AnalysisSession, QueryServer
from repro.service.wire import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_SHUTTING_DOWN,
    ERROR_TOO_LARGE,
    ERROR_UNAVAILABLE,
)
from repro.topology import edge_switches, fat_tree

from test_properties import examples

#: The error codes the server documents (``repro.service.server``).
DOCUMENTED_CODES = frozenset({
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_SHUTTING_DOWN,
    ERROR_TOO_LARGE,
    ERROR_UNAVAILABLE,
})
#: Large enough that 10^5-deep nesting reaches the JSON parser.
MAX_LINE = 1 << 17
PROBE_ID = "probe-query"

TOPOLOGY = fat_tree(4)
DEST = edge_switches(TOPOLOGY)[0]
MODEL = build_model(TOPOLOGY, routing=ecmp_policy(TOPOLOGY, DEST), dest=DEST)
INGRESS = [MODEL.ingress_packets[0]["sw"], MODEL.ingress_packets[0]["pt"]]
VALID = {"id": 7, "kind": "delivery", "ingress": INGRESS, "dest": DEST}
PROBE = json.dumps({**VALID, "id": PROBE_ID}).encode()


@pytest.fixture(scope="module")
def address():
    """One live server on an ephemeral port, its loop on a thread."""
    session = AnalysisSession(models=[MODEL], workers=1)
    started = threading.Event()
    box: dict = {}

    async def serve():
        server = await QueryServer(
            session, window=0.001, max_line_bytes=MAX_LINE
        ).start()
        box["server"] = server
        started.set()
        await server.serve_until_stopped()
        await server.stop()

    thread = threading.Thread(target=asyncio.run, args=(serve(),), daemon=True)
    thread.start()
    assert started.wait(30.0), "server did not start"
    yield ("127.0.0.1", box["server"].port)
    box["server"].request_stop()
    thread.join(30.0)
    session.close()


def decode(text: bytes) -> dict:
    try:
        return json.loads(text)
    except RecursionError:  # an echoed id nested deeper than this stack parses
        return {"id": "(too deep to read)"}


def exchange(address, line: bytes) -> tuple[list[dict], list[dict]]:
    """Send ``line`` then the probe; returns (probe replies, other replies)."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(line + b"\n" + PROBE + b"\n")
        sock.shutdown(socket.SHUT_WR)
        received = bytearray()
        while chunk := sock.recv(1 << 16):
            received += chunk
    replies = [decode(text) for text in received.splitlines()]
    probe = [reply for reply in replies if reply.get("id") == PROBE_ID]
    return probe, [reply for reply in replies if reply.get("id") != PROBE_ID]


def assert_one_typed_reply(address, line: bytes) -> dict:
    probe, others = exchange(address, line)
    assert len(others) == 1, (line[:200], others)
    error = others[0].get("error")
    if error is not None:
        assert error["code"] in DOCUMENTED_CODES, error
    assert len(probe) == 1 and "value" in probe[0], probe
    return others[0]


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**400), max_value=10**400),
        st.floats(),  # NaN and ±Infinity included: json writes and reads them
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def confused_requests(draw) -> bytes:
    """A valid request with one field replaced by an arbitrary JSON value."""
    field = draw(st.sampled_from(["ingress", "dest", "kind", "deadline_ms", "op", "id"]))
    value = draw(json_values.filter(lambda v: v != PROBE_ID))
    return json.dumps({**VALID, field: value}).encode()


@st.composite
def truncated_requests(draw) -> bytes:
    line = json.dumps({**VALID, "deadline_ms": 500}).encode()
    return line[: draw(st.integers(min_value=1, max_value=len(line) - 1))]


@st.composite
def nested(draw) -> bytes:
    # Also straddle the interpreter's recursion limit (1000 by default),
    # where a value can parse and still be too deep to write back.
    depth = draw(st.one_of(
        st.integers(min_value=1, max_value=100_000),
        st.integers(min_value=900, max_value=1_100),
    ))
    balanced = b"[" * depth + b"]" * depth
    return draw(st.sampled_from([
        b"[" * depth,
        balanced,
        b'{"a": ' * depth + b"1" + b"}" * depth,
        b'{"id": ' + balanced + b"}",
        b'{"id": 1, "op": ' + balanced + b"}",
        b'{"id": 1, "ingress": ' + balanced + b', "dest": 1}',
    ]))


arbitrary_bytes = st.binary(min_size=1, max_size=256).map(
    lambda raw: raw.replace(b"\n", b" ")
).filter(lambda raw: raw.strip())

oversize = st.integers(min_value=MAX_LINE + 1, max_value=MAX_LINE + 4096).map(
    lambda size: b'{"id": 1, "pad": "' + b"x" * size + b'"}'
)


@given(line=st.one_of(
    arbitrary_bytes, truncated_requests(), confused_requests(), nested(), oversize
))
@settings(
    max_examples=examples(200),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_every_line_gets_one_typed_reply(address, line):
    assert_one_typed_reply(address, line)


@pytest.mark.parametrize(
    "line",
    [
        b'\xff{"id": 1}',
        b"[" * 100_000,
        json.dumps({**VALID, "deadline_ms": "soon"}).encode(),
        json.dumps({**VALID, "deadline_ms": [1]}).encode(),
        json.dumps({**VALID, "deadline_ms": float("nan")}).encode(),
        json.dumps({**VALID, "deadline_ms": float("inf")}).encode(),
        json.dumps({**VALID, "deadline_ms": True}).encode(),
        json.dumps({**VALID, "deadline_ms": 10**400}).encode(),
    ],
    ids=[
        "not-utf8", "deep-nesting", "deadline-str", "deadline-list",
        "deadline-nan", "deadline-inf", "deadline-bool", "deadline-huge-int",
    ],
)
def test_malformed_lines_are_bad_requests(address, line):
    """Lines once dropped without a reply (or, for NaN, served with no
    deadline) are refused as non-retryable bad requests."""
    error = assert_one_typed_reply(address, line)["error"]
    assert (error["code"], error["retry"]) == (ERROR_BAD_REQUEST, False)


def test_ids_too_deep_to_echo_are_still_answered(address):
    """Around the recursion limit an id can parse and still be too deep
    to write back; its line is answered all the same."""
    for depth in range(900, 1_001):
        assert_one_typed_reply(address, b'{"id": ' + b"[" * depth + b"]" * depth + b"}")
