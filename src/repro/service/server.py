"""Asyncio streaming front end: JSON lines over TCP, coalesced serving.

Architecture: the streaming pipeline is **connections → coalescer →
session → pool**.  A :class:`QueryServer` accepts any number of
concurrent client connections speaking newline-delimited JSON; every
query line is admitted into the shared
:class:`~repro.service.coalesce.BatchCoalescer`, whose admission window
merges queries *across clients* into batches that the session answers
with one multi-RHS solve per destination.  Replies
stream back the moment their batch completes — per query, correlated by
the client's own ``id``, in completion order, over the connection that
asked.

Wire protocol (one JSON object per line, both directions)::

    → {"id": 7, "kind": "delivery", "ingress": [1, 10], "dest": 2}
    ← {"id": 7, "kind": "delivery", "value": 0.9994, "cached": false,
       "batched": 28}

    → {"id": 8, "ingress": [3, 10], "dest": 99, "deadline_ms": 50}
    ← {"id": 8, "error": {"code": "deadline-exceeded",
       "message": "...", "retry": false}}

    → {"op": "stats", "id": 9}
    ← {"id": 9, "stats": {...}}

``kind`` defaults to ``"delivery"``; ``deadline_ms`` is a per-query
relative deadline; error codes (see :mod:`repro.service.wire`) are
``bad-request``, ``overloaded`` (retryable — the backpressure
slow-down), ``unavailable`` (retryable — a backend replica crashed
under the request; the remaining replicas serve it when resent),
``deadline-exceeded``, ``shutting-down``,
``too-large`` (non-retryable — the request line exceeded the server's
``max_line_bytes``; the line is discarded and the connection survives),
and ``internal``.  :meth:`StreamClient.request` honours ``retry: true``
with exponential backoff + full jitter when asked to
(``retries=N``).  Control ops: ``ping``, ``stats``, ``metrics`` (the
session's counters and histograms in Prometheus text exposition
format, as one JSON string field).

Shutdown is a lossless drain: :meth:`QueryServer.stop` stops accepting
connections and admissions, flushes the pending admission window, waits
for every in-flight answer to be *written to its client*, and only then
closes connections (and the session, when the server owns it).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import time

from repro.service.coalesce import (
    BatchCoalescer,
    QueryRejected,
    classify_failure,
    coerce_stream_query,
)
from repro.service.results import _json_value
from repro.service.telemetry import Counters
from repro.service.wire import error_payload


#: Transport write-buffer size above which a sender awaits ``drain()``.
#: Below it, writes just buffer: one reply per drain would serialise the
#: reply path on kernel round-trips and dominate per-query latency.
_DRAIN_THRESHOLD = 64 * 1024

#: Default bound on one JSON line, both directions (server request lines
#: and client reply lines).  asyncio's StreamReader default is 64 KiB,
#: which a legitimate large batch request (or a distribution reply) can
#: exceed — and past it ``readline``/``readuntil`` *raise*, killing the
#: connection.  1 MiB admits any realistic query line; genuinely
#: oversized lines are refused in-protocol with a non-retryable
#: ``too-large`` error instead of a dropped connection.
DEFAULT_MAX_LINE = 1024 * 1024

#: :meth:`QueryServer._read_line` sentinel: an oversized line was
#: consumed and refused; the connection lives on.
_OVERSIZE = object()


class _Connection:
    """One client connection: its writer, a write lock, and its tasks."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()

    async def send(self, payload: dict) -> None:
        """Write one JSON line; drain only under genuine buffer pressure."""
        try:
            text = json.dumps(payload)
        except RecursionError:
            # Only a client's id nests: it parsed, but writing it back
            # needs the few stack frames more that the parser had left.
            text = json.dumps({
                "id": None,
                "error": error_payload("bad-request", "id is nested too deeply to echo"),
            })
        data = text.encode("utf-8") + b"\n"
        self.writer.write(data)
        if self.writer.transport.get_write_buffer_size() > _DRAIN_THRESHOLD:
            async with self.lock:
                await self.writer.drain()


class QueryServer:
    """The asyncio JSON-lines front end over one ``AnalysisSession``.

    Parameters
    ----------
    session:
        The serving session (its replica pool and result cache
        do the actual work; its metrics registry holds the server's
        counters).
    host / port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`).
    window / max_batch / max_pending:
        Admission-window knobs, passed to the
        :class:`~repro.service.coalesce.BatchCoalescer`.
    default_deadline:
        Optional default per-query deadline in seconds, applied when a
        query carries no ``deadline_ms`` of its own; it must be positive
        and finite (``ValueError`` otherwise).
    owns_session:
        Close the session when the server stops (the CLI sets this; an
        embedding application managing its own session does not).
    max_line_bytes:
        Bound on one request line (default 1 MiB).  A longer line is
        answered with a non-retryable ``too-large`` error and discarded;
        the connection — and every other in-flight query on it — keeps
        working.
    """

    def __init__(
        self,
        session,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        window: float = 0.004,
        max_batch: int = 256,
        max_pending: int = 1024,
        default_deadline: float | None = None,
        owns_session: bool = False,
        max_line_bytes: int = DEFAULT_MAX_LINE,
    ):
        if max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        if default_deadline is not None and not 0 < default_deadline < math.inf:
            raise ValueError(
                f"default_deadline must be positive and finite seconds, not {default_deadline}"
            )
        self.session = session
        self.host = host
        self._requested_port = port
        self.max_line_bytes = max_line_bytes
        self.default_deadline = default_deadline
        self._owns_session = owns_session
        self.coalescer = BatchCoalescer(
            session, window=window, max_batch=max_batch, max_pending=max_pending
        )
        metrics = session.telemetry.metrics
        self._count = Counters(
            metrics,
            "repro_server_",
            {
                "connections_served": "Client connections accepted",
                "oversize_refused": "Request lines refused as too large",
            },
        )
        self._open = metrics.gauge("repro_server_connections", "Client connections open").labels()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._stopped = asyncio.Event()
        self._stopping = False
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> "QueryServer":
        """Bind the listener; returns ``self``."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self._requested_port,
            limit=self.max_line_bytes,
        )
        return self

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Ask the serve loop to stop (thread-safe; used by signal/CLI)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stopped.set)

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or :meth:`stop`) is called."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful, lossless shutdown (idempotent).

        Ordered drain: (1) stop accepting connections; (2) close the
        coalescer — new submissions are refused with ``shutting-down``,
        the pending admission window flushes immediately, and every
        in-flight query runs to its answer; (3) wait until each of those
        answers has been *written* to its client; (4) close the
        connections; (5) close the session if this
        server owns it (off the event loop — session close drains its own
        executor and pool).
        """
        self._stopping = True
        self._stopped.set()
        if self._server is not None:
            self._server.close()  # stops accepting; existing sockets live on
        await self.coalescer.aclose()
        pending = [task for conn in self._connections for task in conn.tasks]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for conn in list(self._connections):
            await self._close_connection(conn)
        if self._server is not None:
            # Only after the drain: wait_closed blocks until every client
            # transport is gone, so awaiting it earlier would deadlock
            # against the connections the drain still needs to answer.
            await self._server.wait_closed()
        if self._owns_session:
            await asyncio.get_running_loop().run_in_executor(None, self.session.close)

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def _close_connection(self, conn: _Connection) -> None:
        self._connections.discard(conn)
        self._open.set(len(self._connections))
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- connection handling ---------------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self._open.set(len(self._connections))
        self._count["connections_served"].inc()
        try:
            while True:
                line = await self._read_line(conn, reader)
                if line is _OVERSIZE:
                    continue  # refused in-protocol; the connection lives on
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(conn, line)
                )
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        except (ConnectionError, OSError):
            pass
        finally:
            # Replies for everything this client asked are flushed before
            # its connection closes, even on a half-closed stream.
            if conn.tasks:
                await asyncio.gather(*list(conn.tasks), return_exceptions=True)
            if not self._stopping:
                await self._close_connection(conn)

    async def _read_line(self, conn: _Connection, reader: asyncio.StreamReader):
        """One request line, ``b""`` at EOF, or :data:`_OVERSIZE`.

        ``readline`` past the stream limit *raises* (asyncio buffers the
        partial line and ``LimitOverrunError``/``ValueError`` escapes),
        which historically killed the whole connection at the default
        64 KiB limit.  Here the limit is ``max_line_bytes`` (via
        ``start_server(limit=...)``), and a line that still exceeds it is
        handled in-protocol: answer a non-retryable ``too-large`` error,
        discard bytes until the line's newline goes by, and keep serving
        the connection.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial  # unterminated final line (or b"" at EOF)
        except asyncio.LimitOverrunError as exc:
            self._count["oversize_refused"].inc()
            await self._send_error(
                conn,
                None,
                "too-large",
                f"request line exceeds {self.max_line_bytes} bytes; "
                "it was discarded (raise the server's max_line_bytes "
                "to admit larger lines)",
            )
            overrun = exc.consumed
            while True:
                # Drain the buffered prefix, then look for the newline
                # again; a very long line may overrun several times.
                while overrun > 0:
                    chunk = await reader.read(min(overrun, 1 << 16))
                    if not chunk:
                        return b""
                    overrun -= len(chunk)
                try:
                    await reader.readuntil(b"\n")
                    return _OVERSIZE
                except asyncio.IncompleteReadError:
                    return b""
                except asyncio.LimitOverrunError as exc:
                    overrun = exc.consumed

    async def _serve_line(self, conn: _Connection, line: bytes) -> None:
        try:
            message = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Not JSON, not UTF-8, or nested deeper than the parser goes.
            await self._send_error(conn, None, "bad-request", f"invalid JSON: {exc}")
            return
        if not isinstance(message, dict):
            await self._send_error(
                conn, None, "bad-request", "each line must be a JSON object"
            )
            return
        qid = message.get("id")
        op = message.get("op")
        if op is not None:
            await self._serve_op(conn, qid, op)
            return
        try:
            query = coerce_stream_query(message)
            deadline = self._deadline_for(message)
        except (TypeError, ValueError, KeyError, ArithmeticError) as exc:
            await self._send_error(conn, qid, "bad-request", str(exc))
            return
        try:
            answer = await self.coalescer.submit(query, deadline=deadline)
        except QueryRejected as exc:
            await self._send_error(conn, qid, exc.code, str(exc), retry=exc.retryable)
            return
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            # Belt to the coalescer's classification braces: a raw replica
            # failure that reached this boundary is still a retryable
            # infrastructure condition, not an "internal" dead end.
            mapped = classify_failure(exc)
            if isinstance(mapped, QueryRejected):
                await self._send_error(
                    conn, qid, mapped.code, str(mapped), retry=mapped.retryable
                )
            else:
                await self._send_error(
                    conn, qid, "internal", f"{type(exc).__name__}: {exc}"
                )
            return
        await self._send(
            conn,
            {
                "id": qid,
                "kind": query.kind,
                "value": _json_value(answer.result.value),
                "cached": answer.result.cached,
                "batched": answer.batch,
            },
        )

    async def _serve_op(self, conn: _Connection, qid, op) -> None:
        if op == "ping":
            await self._send(conn, {"id": qid, "pong": True})
        elif op == "stats":
            await self._send(conn, {"id": qid, "stats": self.stats()})
        elif op == "metrics":
            # Prometheus text exposition over the query socket: one line
            # of JSON carrying the whole scrape body, so a sidecar can
            # poll metrics without a second listener.
            await self._send(conn, {"id": qid, "metrics": self.session.metrics_text()})
        else:
            await self._send_error(conn, qid, "bad-request", f"unknown op {op!r}")

    def _deadline_for(self, message: dict) -> float | None:
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
                raise ValueError(f"deadline_ms must be a number, not {deadline_ms!r}")
            seconds = float(deadline_ms) / 1000.0
            if not math.isfinite(seconds):
                raise ValueError(f"deadline_ms must be finite, not {deadline_ms}")
            return time.monotonic() + seconds
        if self.default_deadline is not None:
            return time.monotonic() + self.default_deadline
        return None

    async def _send(self, conn: _Connection, payload: dict) -> None:
        try:
            await conn.send(payload)
        except (ConnectionError, OSError):
            pass  # client went away; its answer has nowhere to go

    async def _send_error(
        self, conn: _Connection, qid, code: str, message: str, *, retry: bool = False
    ) -> None:
        await self._send(conn, {"id": qid, "error": error_payload(code, message, retry)})

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Server + coalescer + pool counters (the ``stats`` op's payload).

        The counts are this server's share of the session's registry
        series.  The ``pool`` block lists the replicas whose worker died
        (``dead``), which no longer serve.
        """
        pool = self.session.pool.stats()
        coalescer = self.coalescer.stats()
        counts = self._count.counts()
        return {
            "connections": len(self._connections),
            "connections_served": counts["connections_served"],
            "queries_answered": coalescer["answered"],
            "oversize_refused": counts["oversize_refused"],
            "coalescer": coalescer,
            "pool": {
                "mode": pool["mode"],
                "size": pool["size"],
                "dead": pool["dead"],
            },
        }


class StreamClient:
    """A minimal asyncio client for the JSON-lines protocol (tests, demos).

    One background task reads the connection and resolves each reply to
    the future of its correlation id, so any number of requests can be in
    flight concurrently — exactly how a real client would recover the
    latency the admission window spends.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        limit: int = DEFAULT_MAX_LINE,
    ):
        self._reader = reader
        self._writer = writer
        self._limit = limit
        self._ids = itertools.count()
        self._waiting: dict[object, asyncio.Future] = {}
        #: How many requests were resent after a retryable error reply.
        self.retries = 0
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, *, limit: int = DEFAULT_MAX_LINE
    ) -> "StreamClient":
        """Open a client whose line ``limit`` must match the server's.

        The server's bound is ``--max-line-kib`` × 1024 bytes
        (``max_line_bytes``); both default to :data:`DEFAULT_MAX_LINE`.
        Replies are read under the same limit: distribution replies (and
        metrics scrapes) can legitimately exceed asyncio's 64 KiB default,
        past which the reader raises instead of returning.  Requests are
        held to it by :meth:`send`.
        """
        reader, writer = await asyncio.open_connection(host, port, limit=limit)
        return cls(reader, writer, limit)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                future = self._waiting.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (ConnectionError, OSError, json.JSONDecodeError) as exc:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ConnectionError(f"stream broke: {exc}"))
            self._waiting.clear()
        finally:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._waiting.clear()

    async def send(self, message: dict) -> asyncio.Future:
        """Send one message (auto-assigning ``id``); returns the reply future.

        A message whose line is longer than the client's ``limit`` raises
        ``ValueError`` and nothing is written: the server would discard
        it unparsed and reply with ``"id": null``, which no future awaits.
        """
        if self._reader_task.done() or self._writer.is_closing():
            # The read loop is gone: nothing will ever resolve a new
            # future, so fail fast instead of returning one that hangs.
            raise ConnectionError("connection closed")
        payload = dict(message)
        if "id" not in payload:
            payload["id"] = next(self._ids)
        line = json.dumps(payload).encode("utf-8")
        # The server's reader refuses a line whose bytes before the
        # newline exceed its limit.
        if len(line) > self._limit:
            raise ValueError(
                f"request line is {len(line)} bytes, over the {self._limit}-byte line limit"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiting[payload["id"]] = future
        self._writer.write(line + b"\n")
        if self._writer.transport.get_write_buffer_size() > _DRAIN_THRESHOLD:
            await self._writer.drain()
        return future

    async def request(
        self,
        message: dict,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> dict:
        """Send one message and await its reply, optionally retrying.

        With ``retries > 0``, a reply carrying a *retryable* error
        (``error.retry == true`` — the ``overloaded`` backpressure signal
        or ``unavailable`` after a replica crashed under the query) is
        resent up to ``retries`` times with capped exponential backoff
        and full jitter (each delay is uniform in ``[0, min(max_backoff,
        backoff * 2**attempt)]``, so synchronized clients de-correlate
        instead of re-stampeding the server).  The final attempt's reply
        is returned either way; non-retryable errors return immediately.
        Each attempt sends a fresh copy of ``message`` (a new ``id`` is
        assigned unless the caller pinned one).
        """
        attempt = 0
        while True:
            reply = await (await self.send(dict(message)))
            error = reply.get("error")
            if not error or not error.get("retry") or attempt >= retries:
                return reply
            delay = min(max_backoff, backoff * (2**attempt)) * random.random()
            attempt += 1
            self.retries += 1
            await asyncio.sleep(delay)

    async def query(
        self, kind: str, ingress, dest: int | None = None, *, retries: int = 0, **extra
    ) -> dict:
        """Convenience: send one query and await its reply.

        ``retries`` enables the backoff-and-resend behaviour of
        :meth:`request` for transient (``retry: true``) errors.
        """
        message = {"kind": kind, "ingress": list(ingress), "dest": dest, **extra}
        return await self.request(message, retries=retries)

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass


__all__ = ["QueryServer", "StreamClient"]
