"""The worker pipe, its typed failures, and a frame codec.

The worker protocol of :mod:`repro.service.procpool` is a sequence of
plain picklable messages (``("plan", ...)`` / ``("query", QuerySpec)`` /
``("result", ResultSpec, stats)`` ...) that one
:class:`~repro.service.procpool.ReplicaClient` exchanges with one worker
process over a :class:`PipeTransport`.  The pipe also owns the worker's
*liveness*: every receive waits on the reply pipe and on the worker's
OS sentinel, so a dead worker is noticed the moment it exits.

:class:`TransportClosed` says the worker is gone (it exited, or the
pipe reset).  It subclasses :class:`EOFError` on purpose, so a loop
written against a raw ``Connection`` (``except (EOFError, OSError)``)
keeps working unmodified.  The replica client's one request loop maps it
onto a ``ReplicaFailure``, which takes the replica out of its pool.

The frame codec (:func:`encode_message`, :func:`decode_message`,
:func:`decode_header`, :func:`decode_payload`, :class:`FrameError`) is
kept for ``bench/w_f10batch.py``, which measures one length-prefixed,
CRC-checked frame per query for its ``wire.*`` per-layer metrics; no
serving path uses it::

    | magic "RPF1" | length u32 | crc32 u32 | pickled payload ... |

Its payload unpickler resolves three classes and refuses every other
global, so a frame cannot make its reader run code.
"""

from __future__ import annotations

import io
import multiprocessing.connection
import pickle
import struct
import zlib

#: Frame header: magic, payload length, CRC-32 of the payload (big-endian).
HEADER = struct.Struct("!4sII")

#: Stream-desync canary at the start of every frame.
MAGIC = b"RPF1"

#: Default refusal bound for a single frame's payload (64 MiB).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024


class TransportError(RuntimeError):
    """Base class: the pipe closed, or a frame is corrupt."""


class TransportClosed(TransportError, EOFError):
    """The worker is gone: it exited, or the pipe was reset."""


class FrameError(TransportError):
    """A frame is corrupt; ``reason`` is one of ``"truncated"``,
    ``"checksum"``, ``"magic"``, ``"oversize"``, or ``"payload"`` (the
    bytes arrived intact but are not a message of this protocol)."""

    def __init__(self, message: str, *, reason: str):
        super().__init__(message)
        self.reason = reason


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

    A pickle naming any other global (``os.system``, ``builtins.eval``,
    another ``repro`` class) would run code of the sender's choosing on
    load, so it is refused unresolved.
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


class PipeTransport:
    """A duplex ``Pipe``, optionally to the worker ``process`` it supervises.

    The wrapped :class:`~multiprocessing.connection.Connection` already
    frames and pickles; this class translates its failure modes
    (``EOFError``/``OSError``/``BrokenPipeError``) into
    :class:`TransportClosed`.  With a ``process``, every ``recv`` waits
    on the reply pipe *and* the worker's ``Process.sentinel``, so a
    worker that dies is a :class:`TransportClosed` the instant the OS
    reaps it (not after a poll interval); :meth:`close` joins it.
    """

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

    def recv(self) -> object:
        waitables = [self.connection]
        if self.process is not None:
            waitables.append(self.process.sentinel)
        try:
            ready = multiprocessing.connection.wait(waitables)
            # A final reply may sit in the pipe buffer when the worker
            # exits right after it: drain it before reporting the death.
            if self.connection in ready or self.connection.poll(0):
                return self.connection.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(f"pipe closed while receiving: {exc}") from exc
        self.process.join(timeout=1.0)
        raise TransportClosed(f"worker died (exit code {self.process.exitcode})")

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


__all__ = [
    "DEFAULT_MAX_FRAME",
    "HEADER",
    "MAGIC",
    "FrameError",
    "PipeTransport",
    "TransportClosed",
    "TransportError",
    "decode_header",
    "decode_message",
    "decode_payload",
    "encode_message",
]
