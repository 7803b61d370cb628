"""Asyncio streaming front end: JSON lines over TCP, coalesced serving.

Architecture: the streaming pipeline is **connections → coalescer →
session → shards → pool**.  A :class:`QueryServer` accepts any number of
concurrent client connections speaking newline-delimited JSON; every
query line is admitted into the shared
:class:`~repro.service.coalesce.BatchCoalescer`, whose admission window
merges queries *across clients* into batches that travel the existing
sharded pipeline (planner → replica pool → multi-RHS solves).  Replies
stream back the moment their shard completes — per query, correlated by
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
slow-down), ``unavailable`` (retryable — a backend replica crashed and
the pool is respawning it), ``deadline-exceeded``, ``shutting-down``,
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

A :class:`PoolAutoscaler` rides along: it watches the coalescer's queue
depth and grows/shrinks the session's backend replica pool
(:meth:`~repro.service.session.AnalysisSession.resize_pool`) between a
configured floor and ceiling — in process mode that is literally
starting and stopping worker processes under load.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import time
from typing import Callable

from repro.service.coalesce import (
    BatchCoalescer,
    QueryRejected,
    classify_failure,
    coerce_stream_query,
)
from repro.service.results import _json_value
from repro.service.wire import error_payload


class PoolAutoscaler:
    """Grow/shrink the session's replica pool from admission-queue depth.

    Sizing rule: the desired replica count is ``ceil(depth /
    target_depth)`` clamped to ``[min_size, max_size]`` — one replica per
    ``target_depth`` outstanding queries.  Growth applies immediately
    (queues hurt now); shrinking waits for ``patience`` consecutive
    observations wanting a smaller pool (hysteresis, so a gap between
    bursts does not thrash worker processes).  Resizes run on a worker
    thread because shrinking blocks until the retired replicas' leases
    drain.
    """

    def __init__(
        self,
        session,
        depth_fn: Callable[[], int],
        *,
        min_size: int = 1,
        max_size: int = 4,
        target_depth: int = 32,
        interval: float = 0.05,
        patience: int = 4,
    ):
        if min_size < 1 or max_size < min_size:
            raise ValueError("need 1 <= min_size <= max_size")
        if target_depth < 1:
            raise ValueError("target_depth must be >= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self._session = session
        self._depth_fn = depth_fn
        self.min_size = min_size
        self.max_size = max_size
        self.target_depth = target_depth
        self.interval = interval
        self.patience = patience
        self._shrink_votes = 0
        self._grow_events = 0
        self._shrink_events = 0
        self._task: asyncio.Task | None = None

    def plan(self, depth: int) -> int | None:
        """The next pool size for ``depth`` outstanding queries, or ``None``.

        Pure decision logic (the async loop just applies it), so the
        grow-now/shrink-later hysteresis is unit-testable without a
        server.
        """
        size = self._session.pool_size
        desired = max(self.min_size, min(self.max_size, math.ceil(depth / self.target_depth)))
        if desired > size:
            self._shrink_votes = 0
            return desired
        if desired < size:
            self._shrink_votes += 1
            if self._shrink_votes >= self.patience:
                self._shrink_votes = 0
                return desired
            return None
        self._shrink_votes = 0
        return None

    async def _apply(self, size: int) -> None:
        loop = asyncio.get_running_loop()
        before = self._session.pool_size
        await loop.run_in_executor(None, self._session.resize_pool, size)
        if size > before:
            self._grow_events += 1
        elif size < before:
            self._shrink_events += 1

    async def run(self) -> None:
        """The periodic observe → plan → resize loop (cancelled on stop)."""
        while True:
            await asyncio.sleep(self.interval)
            desired = self.plan(self._depth_fn())
            if desired is not None:
                await self._apply(desired)

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self.run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def stats(self) -> dict[str, object]:
        return {
            "pool_size": self._session.pool_size,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "target_depth": self.target_depth,
            "grow_events": self._grow_events,
            "shrink_events": self._shrink_events,
        }


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
        The serving session (its planner, replica pool, and result cache
        do the actual work).
    host / port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`).
    window / max_batch / max_pending:
        Admission-window knobs, passed to the
        :class:`~repro.service.coalesce.BatchCoalescer`.
    default_deadline:
        Optional default per-query deadline in seconds, applied when a
        query carries no ``deadline_ms`` of its own.
    autoscale_max:
        Enable the :class:`PoolAutoscaler` with this ceiling (the floor
        is the session's starting pool size).  ``None`` disables
        autoscaling.
    autoscale_target / autoscale_interval / autoscale_patience:
        Autoscaler tuning (queries per replica, observation period,
        shrink hysteresis).
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
        autoscale_max: int | None = None,
        autoscale_target: int = 32,
        autoscale_interval: float = 0.05,
        autoscale_patience: int = 4,
        owns_session: bool = False,
        max_line_bytes: int = DEFAULT_MAX_LINE,
    ):
        if max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        self.session = session
        self.host = host
        self._requested_port = port
        self.max_line_bytes = max_line_bytes
        self._oversize_refused = 0
        self.default_deadline = default_deadline
        self._owns_session = owns_session
        self.coalescer = BatchCoalescer(
            session,
            window=window,
            max_batch=max_batch,
            max_pending=max_pending,
            telemetry=getattr(session, "telemetry", None),
        )
        self.autoscaler: PoolAutoscaler | None = None
        if autoscale_max is not None:
            self.autoscaler = PoolAutoscaler(
                session,
                lambda: self.coalescer.depth,
                min_size=session.pool_size,
                max_size=max(autoscale_max, session.pool_size),
                target_depth=autoscale_target,
                interval=autoscale_interval,
                patience=autoscale_patience,
            )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._stopped = asyncio.Event()
        self._stopping = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queries_admitted = 0
        self._connections_served = 0

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> "QueryServer":
        """Bind the listener (and the autoscaler); returns ``self``."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self._requested_port,
            limit=self.max_line_bytes,
        )
        if self.autoscaler is not None:
            self.autoscaler.start()
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

        Ordered drain: (1) stop accepting connections; (2) stop the
        autoscaler; (3) close the coalescer — new submissions are refused
        with ``shutting-down``, the pending admission window flushes
        immediately, and every in-flight query runs to its answer;
        (4) wait until each of those answers has been *written* to its
        client; (5) close the connections; (6) close the session if this
        server owns it (off the event loop — session close drains its own
        executor and pool).
        """
        self._stopping = True
        self._stopped.set()
        if self._server is not None:
            self._server.close()  # stops accepting; existing sockets live on
        if self.autoscaler is not None:
            await self.autoscaler.stop()
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
        self._connections_served += 1
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
            self._oversize_refused += 1
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
        self._queries_admitted += 1
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
            metrics_fn = getattr(self.session, "metrics_text", None)
            if metrics_fn is None:
                await self._send_error(
                    conn, qid, "bad-request", "session does not expose metrics"
                )
                return
            await self._send(conn, {"id": qid, "metrics": metrics_fn()})
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

        The ``pool`` block carries the supervision counters (failures,
        restarts, per-replica health) and ``retried_shards`` counts the
        crashes the session absorbed without any client noticing.
        """
        pool = self.session.pool.stats()
        return {
            "connections": len(self._connections),
            "connections_served": self._connections_served,
            "queries_answered": self._queries_admitted,
            "oversize_refused": self._oversize_refused,
            "coalescer": self.coalescer.stats(),
            "pool": {
                "mode": pool["mode"],
                "size": pool["size"],
                "steals": pool["steals"],
                "failures": pool["failures"],
                "restarts": pool["restarts"],
                "health": pool["health"],
            },
            "retried_shards": getattr(self.session, "retried_shards", 0),
            "autoscaler": self.autoscaler.stats() if self.autoscaler else None,
        }


class StreamClient:
    """A minimal asyncio client for the JSON-lines protocol (tests, demos).

    One background task reads the connection and resolves each reply to
    the future of its correlation id, so any number of requests can be in
    flight concurrently — exactly how a real client would recover the
    latency the admission window spends.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._waiting: dict[object, asyncio.Future] = {}
        #: How many requests were resent after a retryable error reply.
        self.retries = 0
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, *, limit: int = DEFAULT_MAX_LINE
    ) -> "StreamClient":
        # Same raised line limit as the server: distribution replies (and
        # metrics scrapes) can legitimately exceed asyncio's 64 KiB
        # default, and past it the reader raises instead of returning.
        reader, writer = await asyncio.open_connection(host, port, limit=limit)
        return cls(reader, writer)

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
        """Send one message (auto-assigning ``id``); returns the reply future."""
        if self._reader_task.done() or self._writer.is_closing():
            # The read loop is gone: nothing will ever resolve a new
            # future, so fail fast instead of returning one that hangs.
            raise ConnectionError("connection closed")
        payload = dict(message)
        if "id" not in payload:
            payload["id"] = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiting[payload["id"]] = future
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
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
        or ``unavailable`` while the pool respawns a crashed worker) is
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


__all__ = ["PoolAutoscaler", "QueryServer", "StreamClient"]
