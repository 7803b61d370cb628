"""Transports: the worker wire protocol over pipes and TCP sockets.

The worker protocol of :mod:`repro.service.procpool` is a sequence of
plain picklable messages (``("plan", ...)`` / ``("query", QuerySpec)`` /
``("result", ResultSpec, stats)`` ...) that one
:class:`~repro.service.procpool.ReplicaClient` exchanges with one worker.
This module abstracts the carrier — and, with it, the worker's
*liveness*, which is the carrier's job:

* :class:`PipeTransport` wraps a duplex ``Pipe`` to a local worker
  process — zero framing of its own (the ``Connection`` already
  length-prefixes); every receive also waits on the worker's OS
  sentinel, so a dead worker is noticed the moment it exits, and the
  watchdog action is to kill the process;
* :class:`SocketTransport` speaks **length-prefixed framed messages with
  per-frame checksums** over a stream socket::

      | magic "RPF1" | length u32 | crc32 u32 | pickled payload ... |

  Big-endian header, CRC-32 over the payload bytes.  The magic makes
  stream desynchronisation detectable, the length bounds allocation
  (frames above ``max_frame_bytes`` are refused *before* reading the
  body), and the checksum catches corruption that TCP's 16-bit checksum
  misses — a garbled frame surfaces as a typed :class:`FrameError`, not
  a pickle exception deep inside the unpickler.  The payload is decoded
  by an unpickler that resolves three classes and refuses every other
  global, so a frame cannot make its reader run code.  At the replica
  end it supervises the remote worker from the wire: the host relay's
  ``("heartbeat", seq)`` frames prove liveness while a request is
  outstanding, a ``("worker-died", exit_code)`` notice reads as a
  close, and the watchdog action is to drop the connection (the host
  then reaps the worker).

Failure taxonomy (what supervision keys off):

* :class:`TransportClosed` — the peer is gone (EOF at a frame boundary,
  reset, closed socket).  Subclasses :class:`EOFError` on purpose, so a
  worker loop written against a raw ``Connection`` (``except (EOFError,
  OSError)``) keeps working unmodified over any transport.
* :class:`FrameError` — the stream is *corrupt* (truncated mid-frame,
  checksum mismatch, bad magic, oversize declaration).  The connection
  is unusable after this: framing cannot be trusted to resynchronise,
  so callers tear the transport down and reconnect.
* :class:`TransportTimeout` — ``recv(timeout=...)`` expired.

The replica client's one request loop maps them onto
``ReplicaFailure(kind="crash" | "timeout" | "transport")`` — a close is
a crash, an expired budget a timeout, anything else (a corrupt frame, a
suspected partition) a transport failure — so the pool's
quarantine/respawn machinery treats wire trouble exactly like local
worker death.
"""

from __future__ import annotations

import io
import multiprocessing.connection
import pickle
import select
import socket
import struct
import threading
import time
import zlib
from typing import Callable

#: Frame header: magic, payload length, CRC-32 of the payload (big-endian).
HEADER = struct.Struct("!4sII")

#: Stream-desync canary at the start of every frame.
MAGIC = b"RPF1"

#: Default refusal bound for a single frame's payload (64 MiB).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024


class TransportError(RuntimeError):
    """Base class: the transport failed (closed, corrupt, or timed out)."""


class TransportClosed(TransportError, EOFError):
    """The peer closed the connection (EOF at a frame boundary, reset)."""


class FrameError(TransportError):
    """The framed stream is corrupt; ``reason`` is one of ``"truncated"``,
    ``"checksum"``, ``"magic"``, ``"oversize"``, or ``"payload"`` (the
    bytes arrived intact but are not a message of this protocol).  The
    connection cannot be trusted and must be torn down."""

    def __init__(self, message: str, *, reason: str):
        super().__init__(message)
        self.reason = reason


class TransportTimeout(TransportError):
    """``recv(timeout=...)`` expired before a complete frame arrived."""


def encode_message(message: object, *, max_frame_bytes: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame: header + pickled ``message``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > max_frame_bytes:
        raise FrameError(
            f"outgoing frame of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame bound",
            reason="oversize",
        )
    return HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_header(header: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME) -> tuple[int, int]:
    """Validate a frame header; returns ``(payload_length, crc32)``."""
    magic, length, crc = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(
            f"bad frame magic {magic!r} (stream desynchronised)", reason="magic"
        )
    if length > max_frame_bytes:
        raise FrameError(
            f"frame declares {length} bytes, above the {max_frame_bytes}-byte "
            "bound (refusing to allocate)",
            reason="oversize",
        )
    return length, crc


#: The only classes a frame payload may name.  Everything else the worker
#: protocol sends is tuples, strs, ints, floats, bools, ``None``, dicts
#: and lists — plan specs carry no AST objects.
_WIRE_CLASSES = frozenset({
    ("fractions", "Fraction"),
    ("repro.service.wire", "QuerySpec"),
    ("repro.service.wire", "ResultSpec"),
})


class _WireUnpickler(pickle.Unpickler):
    """An unpickler that resolves :data:`_WIRE_CLASSES` and nothing else.

    The bytes come from a TCP peer: a pickle naming any other global
    (``os.system``, ``builtins.eval``, another ``repro`` class) would run
    code of the peer's choosing on load, so it is refused unresolved.
    """

    def find_class(self, module: str, name: str):
        if (module, name) in _WIRE_CLASSES:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"frame payload names {module}.{name}, which the wire protocol never sends"
        )


def decode_payload(payload: bytes, crc: int) -> object:
    """Checksum-verify and decode one frame payload."""
    if zlib.crc32(payload) != crc:
        raise FrameError(
            "frame checksum mismatch (payload corrupted in transit)",
            reason="checksum",
        )
    try:
        return _WireUnpickler(io.BytesIO(payload)).load()
    except Exception as exc:  # whatever a crafted pickle stream can raise
        raise FrameError(f"undecodable frame payload: {exc}", reason="payload") from exc


def decode_message(frame: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME) -> object:
    """Decode one complete frame (the in-memory inverse of
    :func:`encode_message`; used by the codec tests)."""
    if len(frame) < HEADER.size:
        raise FrameError("truncated frame header", reason="truncated")
    length, crc = decode_header(frame[: HEADER.size], max_frame_bytes=max_frame_bytes)
    payload = frame[HEADER.size : HEADER.size + length]
    if len(payload) < length:
        raise FrameError(
            f"truncated frame: header declares {length} bytes, got {len(payload)}",
            reason="truncated",
        )
    return decode_payload(payload, crc)


class Transport:
    """The carrier protocol: blocking message send/recv plus liveness.

    Both implementations expose ``fileno()`` so transports can sit in
    ``select``/``multiprocessing.connection.wait`` sets next to process
    sentinels — death detection stays select-driven, never poll-driven.
    The placement attributes describe the worker at the far end, for
    pool stats and worker reports.
    """

    kind = "abstract"
    #: Where the worker runs: ``"local"`` or ``"HOST:PORT"``.
    host = "local"
    #: The worker's process id and (once dead) exit code, when known.
    pid: int | None = None
    exit_code: int | None = None
    #: Connections re-established for this replica slot, and heartbeat
    #: silences observed (both cumulative across the slot's respawns).
    reconnects = 0
    heartbeat_misses = 0

    def send(self, message: object) -> None:
        raise NotImplementedError

    def recv(self, timeout: float | None = None) -> object:
        raise NotImplementedError

    def fileno(self) -> int:
        raise NotImplementedError

    def kill(self) -> None:
        """The watchdog action against a worker that stopped answering."""
        self.close()

    def close(self) -> None:
        raise NotImplementedError


class PipeTransport(Transport):
    """A duplex ``Pipe``, optionally to the worker ``process`` it supervises.

    The wrapped :class:`~multiprocessing.connection.Connection` already
    frames and pickles; this class translates its failure modes
    (``EOFError``/``OSError``/``BrokenPipeError``) into the typed
    transport errors the supervision layer switches on.  With a
    ``process``, every ``recv`` waits on the reply pipe *and* the
    worker's ``Process.sentinel``, so a worker that dies is a
    :class:`TransportClosed` the instant the OS reaps it (not after a
    poll interval); :meth:`kill` kills it and :meth:`close` joins it.
    """

    kind = "pipe"

    def __init__(self, connection, process=None):
        self.connection = connection
        self.process = process

    @property
    def pid(self) -> int | None:
        return None if self.process is None else self.process.pid

    @property
    def exit_code(self) -> int | None:
        """The worker's exit code once dead (negative = killed by signal)."""
        return None if self.process is None else self.process.exitcode

    def send(self, message: object) -> None:
        try:
            self.connection.send(message)
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(f"pipe closed while sending: {exc}") from exc

    def recv(self, timeout: float | None = None) -> object:
        waitables = [self.connection]
        if self.process is not None:
            waitables.append(self.process.sentinel)
        try:
            ready = multiprocessing.connection.wait(waitables, timeout)
            if not ready:
                raise TransportTimeout(f"no pipe message within {timeout:.3f}s")
            # A final reply may sit in the pipe buffer when the worker
            # exits right after it: drain it before reporting the death.
            if self.connection in ready or self.connection.poll(0):
                return self.connection.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(f"pipe closed while receiving: {exc}") from exc
        self.process.join(timeout=1.0)
        raise TransportClosed(f"worker died (exit code {self.process.exitcode})")

    def fileno(self) -> int:
        return self.connection.fileno()

    def kill(self) -> None:
        if self.process is None:
            self.close()
            return
        self.process.kill()
        self.process.join(timeout=5.0)

    def close(self) -> None:
        """Close the pipe and join the worker (idempotent)."""
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=5.0)


class SocketTransport(Transport):
    """Length-prefixed, checksummed frames over a stream socket.

    ``send`` is thread-safe (a lock serialises whole frames onto the
    stream, so a heartbeat writer and a request writer never interleave
    bytes); ``recv`` is single-consumer by design — exactly one reader
    thread owns the inbound side, mirroring the one-outstanding-request
    discipline of the pipe protocol.

    Every inbound frame is bounded by ``max_frame_bytes`` *before* its
    body is read, checksum-verified before unpickling, and magic-checked
    against stream desynchronisation; any violation raises
    :class:`FrameError` and poisons the connection (framing can no
    longer be trusted, so the owner tears it down and reconnects).
    """

    kind = "tcp"

    def __init__(self, sock: socket.socket, *, max_frame_bytes: int = DEFAULT_MAX_FRAME):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (e.g. an AF_UNIX socketpair in tests)
        self._sock = sock
        self._max_frame = max_frame_bytes
        self._send_lock = threading.Lock()
        self._closed = False
        # (interval, suspect window, condemn window, mark) once armed.
        self._liveness: tuple | None = None

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout: float | None = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME,
    ) -> "SocketTransport":
        """Dial ``host:port`` and wrap the connection."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        return cls(sock, max_frame_bytes=max_frame_bytes)

    def send(self, message: object) -> None:
        data = encode_message(message, max_frame_bytes=self._max_frame)
        self._send_bytes(data)

    def send_corrupted(self, message: object) -> None:
        """Send ``message`` with one payload byte flipped (fault injection).

        The frame header (and its declared length) stays intact, so the
        receiver reads a complete, well-delimited frame whose checksum
        does not match — exercising exactly the ``garble`` failure mode
        the CRC exists to catch.
        """
        data = bytearray(encode_message(message, max_frame_bytes=self._max_frame))
        data[HEADER.size] ^= 0xFF
        self._send_bytes(bytes(data))

    def _send_bytes(self, data: bytes) -> None:
        with self._send_lock:
            if self._closed:
                raise TransportClosed("socket transport is closed")
            try:
                self._sock.sendall(data)
            except (BrokenPipeError, ConnectionResetError, OSError) as exc:
                raise TransportClosed(f"socket closed while sending: {exc}") from exc

    def expect_heartbeats(
        self,
        interval: float,
        suspect_after: float,
        condemn_after: float,
        mark: Callable[..., None] | None = None,
    ) -> None:
        """Arm wire liveness for :meth:`recv` (the replica end of a host link).

        The host relay sends a heartbeat every ``interval`` seconds while
        a request is outstanding, even mid-solve.  A silence of
        ``suspect_after`` intervals counts a heartbeat miss (reported
        through ``mark("heartbeat-missed", ...)``); a silence of
        ``condemn_after`` intervals is a suspected partition
        (``mark("host-partition-suspected", ...)``) and fails the
        receive with :class:`TransportError`.
        """
        self._liveness = (
            interval, interval * suspect_after, interval * condemn_after, mark
        )

    def recv(self, timeout: float | None = None) -> object:
        """The next message; ``timeout`` bounds the whole wait.

        Heartbeat frames are consumed here — they are proof of liveness,
        not messages — and a ``("worker-died", exit_code)`` notice from
        the host's local supervision raises :class:`TransportClosed`
        with :attr:`exit_code` set.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        heard = time.monotonic()
        while True:
            wait = None if deadline is None else deadline - time.monotonic()
            if wait is not None and wait <= 0:
                raise TransportTimeout(f"no complete frame within {timeout:.3f}s")
            if self._liveness is not None:
                interval, _suspect, condemn, _mark = self._liveness
                if not self.poll(interval if wait is None else min(wait, interval)):
                    self._silence(time.monotonic() - heard)
                    continue
                # A frame that starts must finish within the condemn window.
                wait = condemn if wait is None else min(wait, condemn)
            header = self._recv_exact(HEADER.size, wait, at_boundary=True)
            length, crc = decode_header(header, max_frame_bytes=self._max_frame)
            message = decode_payload(self._recv_exact(length, wait, at_boundary=False), crc)
            heard = time.monotonic()
            op = message[0] if isinstance(message, tuple) and message else None
            if op == "heartbeat":
                continue
            if op == "worker-died":
                self.exit_code = message[1] if len(message) > 1 else None
                raise TransportClosed(f"worker died on its host (exit code {self.exit_code})")
            return message

    def _silence(self, stale: float) -> None:
        """Judge ``stale`` seconds without a frame: count a miss, or condemn."""
        _interval, suspect, condemn, mark = self._liveness
        if stale >= condemn:
            if mark is not None:
                mark("host-partition-suspected", stale=round(stale, 3))
            raise TransportError(f"no heartbeat for {stale:.2f}s (partition suspected)")
        if stale >= suspect:
            self.heartbeat_misses += 1
            if mark is not None:
                mark("heartbeat-missed", stale=round(stale, 3), misses=self.heartbeat_misses)

    def _recv_exact(self, n: int, timeout: float | None, *, at_boundary: bool) -> bytes:
        """Read exactly ``n`` bytes.

        EOF before the first byte of a frame is an orderly close
        (:class:`TransportClosed`); EOF anywhere else truncates a frame
        (:class:`FrameError`).  The timeout, when given, bounds the whole
        read.
        """
        buffer = io.BytesIO()
        got = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        while got < n:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(
                        f"no complete frame within {timeout:.3f}s"
                    )
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(min(n - got, 1 << 20))
            except socket.timeout as exc:
                raise TransportTimeout(
                    f"no complete frame within {timeout:.3f}s"
                ) from exc
            except (ConnectionResetError, OSError) as exc:
                raise TransportClosed(f"socket closed while receiving: {exc}") from exc
            finally:
                if deadline is not None:
                    try:
                        self._sock.settimeout(None)
                    except OSError:
                        pass
            if not chunk:
                if at_boundary and got == 0:
                    raise TransportClosed("peer closed the connection")
                raise FrameError(
                    f"truncated frame: expected {n} bytes, got {got} before EOF",
                    reason="truncated",
                )
            buffer.write(chunk)
            got += len(chunk)
        return buffer.getvalue()

    def poll(self, timeout: float = 0.0) -> bool:
        if self._closed:
            return True
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            return True
        return bool(ready)

    def peer_closed(self) -> bool:
        """Whether the peer has closed, *without* consuming stream bytes.

        Used by the host relay during an injected ``partition`` (which
        must not read) to still notice an abandoned connection.
        """
        if self._closed:
            return True
        try:
            chunk = self._sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            return True
        return chunk == b""

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


__all__ = [
    "DEFAULT_MAX_FRAME",
    "HEADER",
    "MAGIC",
    "FrameError",
    "PipeTransport",
    "SocketTransport",
    "Transport",
    "TransportClosed",
    "TransportError",
    "TransportTimeout",
    "decode_header",
    "decode_message",
    "decode_payload",
    "encode_message",
]
