"""The worker-host daemon: remote replicas, spawned and supervised here.

``python -m repro.service host --bind HOST:PORT --workers N`` runs a
:class:`HostServer`: a small TCP daemon that turns this machine into
replica capacity for ``pool_mode="remote"`` sessions
(:class:`~repro.service.procpool.RemoteReplicas`) on some other machine.
The paper's scalability claim is near-linear speedup across *machines*;
this is the machine-side half.

Design — one worker process per attached client connection:

* a pool-side :func:`~repro.service.procpool.attach` dials in and sends
  ``("attach", {"replica": i})``; the daemon spawns a fresh local worker
  process (the *same* :func:`~repro.service.procpool.worker_main` loop
  process replicas use, fed over a duplex pipe) and answers
  ``("attached", {"pid", "host", "capacity", "workers"})``;
* a per-connection **relay thread** then bridges the two worlds: framed,
  checksummed TCP messages (:class:`~repro.service.transport.SocketTransport`)
  on one side, pipe messages on the other.  The relay multiplexes the
  socket, the worker pipe, and the worker's OS sentinel through one
  ``selectors`` loop, so client requests, worker replies, and worker
  death are all event-driven;
* **heartbeats**: while a request is outstanding the relay emits
  ``("heartbeat", seq)`` frames on an interval *independently of the
  worker* — a mid-solve worker keeps the wire warm, so the client's
  transport can tell "slow but alive" from "host unreachable" (an idle
  connection stays silent);
* **local supervision**: a worker that dies gets reported as
  ``("worker-died", exitcode)`` before the connection closes; a client
  that vanishes (or times out and drops the connection on purpose) gets
  its worker killed — a remote watchdog kill is "drop the connection",
  and the daemon guarantees the hung worker is reaped.  Workers whose
  daemon is SIGKILLed self-terminate: their pipe's far end dies with the
  daemon, and ``worker_main`` exits on the resulting ``EOFError``.

Capacity: attachments are spawn-on-demand.  ``--workers N`` advertises
nominal capacity (pools can introspect it via the attach reply); the
optional ``--max-workers`` *hard* cap is off by default on purpose —
host failover deliberately over-subscribes surviving hosts during an
outage, and degraded-but-available beats refused.

Fault injection (chaos testing): the network fault kinds of
``REPRO_FAULTS`` (``partition`` / ``garble`` / ``stall``) are honored
*here*, at the transport relay, below the worker loop — the worker never
sees them.  ``partition@i:ms=M`` blackholes replica ``i``'s connection
(no relaying, no heartbeats, no reads) for M ms; ``garble@i`` sends
exactly one reply frame through
:meth:`~repro.service.transport.SocketTransport.send_corrupted`;
``stall@i:ms=M`` sleeps M ms before each reply frame.  Process fault
kinds (``kill``/``drop``/``delay``) keep working unchanged inside the
spawned workers themselves.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import selectors
import signal
import socket
import sys
import threading
import time

from repro.service.faults import FaultPlan, WorkerFaults
from repro.service.procpool import _pick_start_method, worker_main
from repro.service.transport import (
    DEFAULT_MAX_FRAME,
    SocketTransport,
    TransportClosed,
    TransportError,
)

#: Default heartbeat period (seconds) for host relays.
HEARTBEAT_INTERVAL = 0.2

#: Default ``ms`` for an explicit-duration partition is "indefinite".
_INDEFINITE = float("inf")

#: Serializes worker forks across relay threads.  ``Process.start()``
#: from several threads at once interleaves fork with fd creation in the
#: other spawns, so each child would inherit half-built pipes; one fork
#: at a time keeps every child's fd snapshot coherent.
_SPAWN_LOCK = threading.Lock()


class _ConnectionDone(Exception):
    """Internal: the relay loop is over (client or worker gone)."""


class HostServer:
    """One machine's worth of remotely-leasable worker replicas.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` / :attr:`address` after :meth:`start`).
    workers:
        Advertised nominal capacity (returned in every attach reply).
        Attachment is spawn-on-demand, so this is a sizing hint for
        pools, not a limit.
    max_workers:
        Optional hard cap on concurrently attached workers; beyond it,
        attach requests are refused with ``("error", "at-capacity")``.
        ``None`` (default) = unbounded, so failover from a dead peer
        host can over-subscribe this one instead of failing the batch.
    heartbeat_interval:
        Seconds between ``("heartbeat", seq)`` frames on a connection
        with a request outstanding.
    start_method:
        Worker process start method (same default as the local pool).
    max_frame_bytes:
        Per-frame size bound for the TCP transport.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        *,
        max_workers: int | None = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        start_method: str | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self._host = host
        self._port = port
        self.workers = workers
        self.max_workers = max_workers
        self._heartbeat = heartbeat_interval
        self._max_frame = max_frame_bytes
        self._start_method = _pick_start_method(start_method)
        self._context = multiprocessing.get_context(self._start_method)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._attached = 0
        self._served = 0
        #: Live client transports, so close() can unblock relay threads.
        self._transports: set[SocketTransport] = set()
        #: Parent ends of live worker pipes (fd hygiene for new forks).
        self._pipes: set = set()
        self._threads: list[threading.Thread] = []
        #: One-shot fault state per worker index, shared across
        #: reconnects: a ``garble``/``partition`` that already fired must
        #: not re-arm when the condemned client dials back in, or every
        #: retry of an affinity-pinned shard would hit the same fault.
        self._fault_state: dict[int, WorkerFaults | None] = {}

    # -- lifecycle -------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("host server is not started")
        return self._port

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return (self._host, self.port)

    def start(self) -> "HostServer":
        """Bind, listen, and start accepting attachments (non-blocking)."""
        if self._listener is not None:
            raise RuntimeError("host server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        listener.settimeout(0.25)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-host-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or a signal handler) stops the server."""
        if self._listener is None:
            self.start()
        self._stop.wait()

    def close(self) -> None:
        """Stop accepting, drop every connection, and reap every worker."""
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
        with self._lock:
            transports = list(self._transports)
            threads = list(self._threads)
        for transport in transports:
            transport.close()  # unblocks relays parked in recv()
        for thread in threads:
            thread.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "HostServer":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accept / relay --------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="repro-host-relay",
                daemon=True,
            )
            with self._lock:
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        transport = SocketTransport(sock, max_frame_bytes=self._max_frame)
        with self._lock:
            self._transports.add(transport)
        process = None
        conn = None
        try:
            hello = transport.recv(timeout=10.0)
            if not (isinstance(hello, tuple) and hello and hello[0] == "attach"):
                transport.send(("error", f"expected attach, got {hello!r}"))
                return
            info = hello[1] if len(hello) > 1 else {}
            index = int(info.get("replica", 0))
            with self._lock:
                if self.max_workers is not None and self._attached >= self.max_workers:
                    refused = True
                else:
                    refused = False
                    self._attached += 1
                    self._served += 1
            if refused:
                transport.send(("error", "at-capacity"))
                return
            try:
                conn, process = self._spawn_worker(index)
                transport.send(
                    (
                        "attached",
                        {
                            "worker": index,
                            "pid": process.pid,
                            "host": f"{self._host}:{self._port}",
                            "capacity": self.workers,
                            "workers": self._attached,
                        },
                    )
                )
                self._relay(transport, conn, process, self._worker_faults(index))
            finally:
                with self._lock:
                    self._attached -= 1
        except (TransportError, OSError, EOFError, _ConnectionDone):
            pass
        finally:
            with self._lock:
                self._transports.discard(transport)
                if conn is not None:
                    self._pipes.discard(conn)
            transport.close()
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
            if process is not None and process.is_alive():
                # The client is gone (or timed out and dropped us on
                # purpose): the worker's state is unreachable, reap it.
                process.kill()
                process.join(timeout=5.0)

    def _worker_faults(self, index: int) -> WorkerFaults | None:
        """The (durable) relay-side fault hooks for worker ``index``.

        Read lazily from ``REPRO_FAULTS`` on first attach, then cached so
        one-shot faults stay fired across that worker's reconnects.
        """
        with self._lock:
            if index not in self._fault_state:
                plan = FaultPlan.from_env()
                self._fault_state[index] = (
                    plan.for_worker(index) if plan is not None else None
                )
            return self._fault_state[index]

    def _spawn_worker(self, index: int):
        """One fresh local worker process, driven over a duplex pipe."""
        with _SPAWN_LOCK:
            conn, child_conn = self._context.Pipe(duplex=True)
            stale_fds: list[int] = []
            if self._start_method == "fork":
                # Everything the fork will drag along that the worker
                # must not hold open (see worker_main).
                stale_fds.append(conn.fileno())
                listener = self._listener
                if listener is not None:
                    stale_fds.append(listener.fileno())
                with self._lock:
                    for other in (*self._transports, *self._pipes):
                        try:
                            stale_fds.append(other.fileno())
                        except OSError:  # closed under us: nothing to shed
                            pass
            process = self._context.Process(
                target=worker_main,
                args=(child_conn, index, stale_fds),
                name=f"repro-host-worker-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
        with self._lock:
            self._pipes.add(conn)
        return conn, process

    def _relay(
        self,
        transport: SocketTransport,
        conn,
        process,
        faults: WorkerFaults | None,
    ) -> None:
        """Bridge socket frames ↔ worker pipe until either side is gone."""
        sel = selectors.DefaultSelector()
        sel.register(transport, selectors.EVENT_READ, "sock")
        sel.register(conn, selectors.EVENT_READ, "pipe")
        sel.register(process.sentinel, selectors.EVENT_READ, "sentinel")
        served = 0
        seq = 0
        # Requests relayed to the worker and not yet answered: heartbeats
        # flow only while the client is waiting for one.
        outstanding = 0
        next_beat = time.monotonic() + self._heartbeat
        try:
            while not self._stop.is_set():
                now = time.monotonic()
                if now >= next_beat:
                    if outstanding:
                        seq += 1
                        transport.send(("heartbeat", seq))
                    next_beat = now + self._heartbeat
                events = sel.select(timeout=max(0.0, next_beat - now))
                tags = {key.data for key, _ in events}
                if "pipe" in tags:
                    # Worker → client first: a final reply beats its
                    # death notice (the sentinel often fires together
                    # with the reply on a clean stop).
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        self._report_worker_death(transport, process)
                        raise _ConnectionDone
                    served = self._forward_reply(transport, reply, faults, served)
                    outstanding = max(0, outstanding - 1)
                    # Faults may have blackholed the wire for a while;
                    # resume heartbeats on a fresh schedule.
                    next_beat = min(next_beat, time.monotonic() + self._heartbeat)
                if "sock" in tags:
                    try:
                        message = transport.recv(timeout=10.0)
                    except TransportClosed:
                        raise _ConnectionDone  # client gone: reap the worker
                    conn.send(message)
                    outstanding += 1
                if "sentinel" in tags and "pipe" not in tags:
                    if conn.poll(0):
                        continue  # drain the final reply first
                    self._report_worker_death(transport, process)
                    raise _ConnectionDone
        finally:
            sel.close()

    def _forward_reply(
        self,
        transport: SocketTransport,
        reply,
        faults: WorkerFaults | None,
        served: int,
    ) -> int:
        """Send one worker reply to the client, applying network faults."""
        is_result = isinstance(reply, tuple) and reply and reply[0] == "result"
        if is_result:
            served += 1
        if faults is not None and is_result:
            partition = faults.partition_ms(served)
            if partition is not None:
                self._blackhole(transport, partition)
            stall = faults.stall_ms(served)
            if stall:
                time.sleep(stall / 1000.0)
            if faults.garble_reply(served):
                transport.send_corrupted(reply)
                return served
        transport.send(reply)
        return served

    def _blackhole(self, transport: SocketTransport, ms: float) -> None:
        """An injected partition: no relaying, no heartbeats, no reads.

        ``ms == 0`` means indefinite — hold until the client gives up
        and drops the connection (its watchdog or heartbeat check will),
        which is exactly what a real blackholed link looks like.  The
        peer socket is only *peeked* (never read) so the partition also
        stops acking at the application layer.
        """
        deadline = _INDEFINITE if ms <= 0 else time.monotonic() + ms / 1000.0
        while not self._stop.is_set():
            if time.monotonic() >= deadline:
                return
            if transport.peer_closed():
                raise _ConnectionDone
            time.sleep(0.05)
        raise _ConnectionDone

    @staticmethod
    def _report_worker_death(transport: SocketTransport, process) -> None:
        process.join(timeout=1.0)
        try:
            transport.send(("worker-died", process.exitcode))
        except TransportError:
            pass  # client is gone too; nothing to notify

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "address": f"{self._host}:{self._port}",
                "capacity": self.workers,
                "attached": self._attached,
                "served": self._served,
            }


def _host_process_main(channel, host, workers, heartbeat_interval, start_method):
    """Entry point of a :func:`start_host_process` child."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The fork may have come from a multithreaded parent (a test runner,
    # a server) whose sys.stdout/sys.stderr wrappers were snapshotted
    # mid-write — their locks would then be held forever in this child,
    # and the first Process.start() here would deadlock flushing them.
    # Fresh wrappers over the same fds have fresh locks.
    try:
        sys.stdout = os.fdopen(os.dup(1), "w", buffering=1)
        sys.stderr = os.fdopen(os.dup(2), "w", buffering=1)
    except OSError:  # pragma: no cover - fds 1/2 closed: run silent
        sys.stdout = open(os.devnull, "w")
        sys.stderr = open(os.devnull, "w")
    server = HostServer(
        host=host,
        port=0,
        workers=workers,
        heartbeat_interval=heartbeat_interval,
        start_method=start_method,
    )
    server.start()
    signal.signal(signal.SIGTERM, lambda *_: server._stop.set())
    channel.send(server.address)
    channel.close()
    server.serve_forever()
    server.close()


def start_host_process(
    workers: int = 2,
    *,
    host: str = "127.0.0.1",
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
    start_method: str | None = None,
):
    """Spawn a :class:`HostServer` in a real child process.

    Returns ``(process, (host, port))``.  This is the deployment shape
    the chaos suite and ``examples/remote_hosts.py`` exercise — a
    killable daemon whose workers are its own children, so SIGKILLing
    the daemon orphans the workers and they self-terminate on pipe EOF.
    Stop it gracefully with ``process.terminate()`` (SIGTERM) or not at
    all gracefully with ``os.kill(process.pid, signal.SIGKILL)``.
    """
    method = _pick_start_method(start_method)
    context = multiprocessing.get_context(method)
    channel, child_channel = context.Pipe(duplex=False)
    process = context.Process(
        target=_host_process_main,
        args=(child_channel, host, workers, heartbeat_interval, start_method),
        name="repro-host-daemon",
    )
    process.start()
    child_channel.close()
    if not channel.poll(30.0):
        process.kill()
        process.join(timeout=5.0)
        raise RuntimeError("host daemon did not report its address within 30s")
    address = channel.recv()
    channel.close()
    return process, address


def host_main(argv=None) -> int:
    """``python -m repro.service host``: run one worker-host daemon."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service host",
        description="Serve worker replicas to remote sessions (--pool-mode remote) over TCP.",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (port 0 = ephemeral, printed on start)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(1, (os.cpu_count() or 2) // 2),
        help="advertised nominal worker capacity (spawn is on-demand)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="hard cap on attached workers (default: unbounded, so "
        "failover from dead peer hosts can over-subscribe this one)",
    )
    parser.add_argument(
        "--heartbeat-ms",
        type=float,
        default=HEARTBEAT_INTERVAL * 1000.0,
        help="heartbeat period per connection, in milliseconds",
    )
    parser.add_argument(
        "--start-method",
        default=None,
        help="worker start method (fork/spawn; default picks like the local pool)",
    )
    args = parser.parse_args(argv)
    host, sep, port = args.bind.rpartition(":")
    if not sep or not host:
        parser.error(f"--bind must be HOST:PORT, got {args.bind!r}")
    server = HostServer(
        host=host,
        port=int(port),
        workers=args.workers,
        max_workers=args.max_workers,
        heartbeat_interval=args.heartbeat_ms / 1000.0,
        start_method=args.start_method,
    )
    server.start()
    print(
        f"repro-host: listening on {server.address[0]}:{server.port} "
        f"(capacity {server.workers}, heartbeat {args.heartbeat_ms:g}ms)",
        flush=True,
    )
    stop = lambda *_: server._stop.set()  # noqa: E731 - tiny signal trampoline
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    server.serve_forever()
    server.close()
    return 0


__all__ = [
    "HEARTBEAT_INTERVAL",
    "HostServer",
    "host_main",
    "start_host_process",
]
