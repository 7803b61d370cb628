"""Process-hosted backend replicas: full-pipeline parallel serving.

Architecture: the thread-hosted :class:`~repro.service.pool.BackendPool`
only parallelises the phases of a shard that release the GIL (SciPy's
``splu`` factorizations and solves); the GIL-bound phases — plan
rebuilds, reachable-matrix assembly, FDD stage application — still
serialise, so thread-pool speedup saturates well below core count.  A
:class:`ProcessBackendPool` removes that ceiling by hosting each replica
in its **own worker process**: every worker owns a complete
:class:`~repro.backends.matrix.MatrixBackend` (its own FDD manager, plan
caches, and ``splu`` family), so compile-free plan rebuilds, matrix
assembly, and solving all overlap across cores.

Nothing manager-bound and no ASTs cross the process boundary
(:mod:`repro.service.wire`):

* the parent keeps one *planner backend* (replica 0's role in the thread
  pool) whose only job is compiling policies once and producing their
  manager-independent ``(fields, stage_specs)`` payloads and canonical
  :meth:`~repro.backends.matrix.MatrixBackend.plan_key` cache keys;
* a :class:`PlanDirectory` assigns each policy a small integer plan id
  and hands the payload to every worker that has not seen it yet — ship
  once per (worker, plan), serve forever after;
* workers rebuild plans with
  :meth:`~repro.backends.matrix.MatrixBackend.adopt_plan` (pure
  ``node_from_spec`` reconstruction — **no AST compilation ever happens
  worker-side**, asserted by their ``ast_compilations`` counter staying
  0) and answer :class:`~repro.service.wire.QuerySpec` messages with
  :class:`~repro.service.wire.ResultSpec` answers: plain floats and
  exact :class:`~fractions.Fraction` masses keyed by packet spec.

The pool plugs into the exact lease/affinity/steal protocol of the
thread pool (it *is* a :class:`BackendPool` subclass): destination
affinity now also means "the worker process holding that destination's
factorizations keeps serving it", warmup pre-plans every worker through
the ordinary lease path, and ``close()`` drains held leases, then stops
and joins every worker.  Because plan payloads are per-task data, one
long-lived worker serves any number of destinations and loop bodies
without restarting.

Lock note: a :class:`WorkerHandle` is only ever driven under its
replica's exclusive lease, so the pipe protocol needs no lock of its
own; the :class:`PlanDirectory` lock is the process-pool analogue of the
:class:`~repro.backends.matrix.PlanSpecStore` leaf lock, except that it
*may* compile (parent-side, first time a policy is seen) — it is
therefore only ever taken from inside a lease or from warmup, never
while holding the session state lock.

Supervision: worker death is detected *immediately* — every request
waits on both the reply pipe and the worker's ``Process.sentinel`` via
:func:`multiprocessing.connection.wait`, so a crash surfaces as a
structured :class:`~repro.service.pool.ReplicaFailure` the instant the
process exits (not after a poll interval).  A ``shard_timeout`` arms a
per-request wall-clock watchdog: a worker that does not answer in time
is killed and reported as ``kind="timeout"`` — hung workers are replaced
exactly like crashed ones.  The pool's quarantine/respawn machinery (see
:mod:`repro.service.pool`) then spawns a fresh worker at the same index
and re-publishes every plan the dead worker had adopted from the
parent-side :class:`PlanDirectory` — as specs, so respawned workers
still report 0 AST compilations.  Fault injection for all of this lives
in :mod:`repro.service.faults` (``REPRO_FAULTS``), which
:func:`worker_main` consults around query requests only.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import queue
import random
import threading
import time
import traceback
import weakref
from typing import TYPE_CHECKING

from repro.service.faults import FaultPlan
from repro.service.pool import (
    HEALTHY,
    BackendPool,
    PoolUnavailable,
    Replica,
    ReplicaFailure,
)
from repro.service.telemetry import Telemetry, Tracer
from repro.service.transport import (
    DEFAULT_MAX_FRAME,
    FrameError,
    PipeTransport,
    SocketTransport,
    TransportClosed,
    TransportError,
)
from repro.service.wire import QuerySpec, ResultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.matrix import MatrixBackend

#: Environment override for the worker start method ("fork", "spawn", ...).
START_METHOD_ENV = "REPRO_POOL_START_METHOD"


def _pick_start_method(requested: str | None) -> str:
    """The multiprocessing start method for worker processes.

    ``fork`` (when the platform offers it) makes workers available in
    milliseconds and inherits ``sys.path``; ``spawn`` is the portable
    fallback.  The ``REPRO_POOL_START_METHOD`` environment variable and
    the ``start_method=`` parameter both override.
    """
    choice = requested or os.environ.get(START_METHOD_ENV)
    available = multiprocessing.get_all_start_methods()
    if choice:
        if choice not in available:
            raise ValueError(
                f"start method {choice!r} not available here (have: {available})"
            )
        return choice
    return "fork" if "fork" in available else "spawn"


def _worker_stats(
    backend: "MatrixBackend", queries: int, spans: list[dict] | None = None
) -> dict:
    """The introspection blob attached to every worker reply.

    ``spans`` — present only on traced queries — carries the worker-side
    finished span records (already parented into the caller's trace via
    the propagated :attr:`~repro.service.wire.QuerySpec.trace` context),
    which the parent-side handle ingests into its tracer.
    """
    stats = {
        "pid": os.getpid(),
        "ast_compilations": backend.ast_compilations,
        "plans": backend.adopted_plans,
        "queries": queries,
        "timings": backend.timings(),
        "solver": backend.solver_stats(),
    }
    if spans:
        stats["spans"] = spans
    return stats


def worker_main(connection, index: int = 0) -> None:
    """The worker process: one backend replica, driven over one pipe.

    The worker owns a full :class:`~repro.backends.matrix.MatrixBackend`
    built *here*, in this process — nothing manager-bound was inherited
    or received.  Messages (all plain picklable data):

    * ``("plan", plan_id, fields, stage_specs)`` → adopt a shipped plan
      (idempotent); reply ``("ok", stats)``.
    * ``("query", QuerySpec)`` → answer from adopted plans only; reply
      ``("result", ResultSpec, stats)``.
    * ``("reset", keep_plans)`` → drop solver state (and, without
      ``keep_plans``, the adopted plans); reply ``("ok", stats)``.
    * ``("ping",)`` → reply ``("ok", stats)`` (liveness + stats fetch).
    * ``("stop",)`` → reply ``("ok", stats)`` and exit.

    Any exception is caught and returned as ``("error", summary,
    traceback)`` — the worker survives and keeps serving, so one bad
    query cannot take a replica (and its warm factorizations) down.

    Fault injection (chaos testing): when ``REPRO_FAULTS`` names this
    worker's ``index``, the :mod:`repro.service.faults` hooks run around
    **query** requests only — plan shipping and the respawn path stay
    clean, so injected crashes exercise the same recovery machinery a
    real mid-solve crash would.
    """
    import signal

    # The parent handles interrupts and tears workers down via "stop";
    # a Ctrl-C must not kill workers mid-protocol.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.backends.matrix import MatrixBackend

    plan = FaultPlan.from_env()
    faults = plan.for_worker(index) if plan is not None else None
    backend = MatrixBackend()
    queries_served = 0
    requests_served = 0
    # Worker-side tracer, built lazily on the first *traced* query (the
    # untraced path never pays for it).  Always enabled once built: the
    # sampling decision was made by the caller and travels in the
    # propagated context.
    tracer: Tracer | None = None
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):  # parent died: nothing left to serve
            return
        op = message[0]
        try:
            if op == "stop":
                connection.send(("ok", _worker_stats(backend, queries_served)))
                return
            if op == "plan":
                _, plan_id, fields, stage_specs = message
                backend.adopt_plan(plan_id, fields, stage_specs)
                connection.send(("ok", _worker_stats(backend, queries_served)))
            elif op == "query":
                if faults is not None and faults.sabotage_query(requests_served) == "drop":
                    connection.close()
                    return
                requests_served += 1
                spec: QuerySpec = message[1]
                if spec.kind != "distributions":
                    raise ValueError(f"unknown wire query kind {spec.kind!r}")
                spans: list[dict] | None = None
                if spec.trace is not None:
                    # Traced query: wrap the solve in a worker span
                    # parented to the propagated caller context, and turn
                    # backend phase timings into child spans via the
                    # stopwatch listener.  Finished records ship back in
                    # the reply's stats blob.
                    if tracer is None:
                        tracer = Tracer(enabled=True)
                    watch = getattr(backend, "watch", None)
                    with tracer.span(
                        "worker:query",
                        parent=spec.trace,
                        plan=spec.plan,
                        packets=len(spec.ingress),
                        worker=index,
                    ):
                        if watch is not None:
                            watch.listener = tracer.phase_listener()
                        try:
                            dists = backend.query_plan(
                                spec.plan, spec.ingress_packets()
                            )
                        finally:
                            if watch is not None:
                                watch.listener = None
                    spans = tracer.take()
                else:
                    dists = backend.query_plan(spec.plan, spec.ingress_packets())
                queries_served += len(spec.ingress)
                result = ResultSpec.from_distributions(spec.plan, dists)
                if faults is not None:
                    faults.delay_reply(requests_served)
                connection.send(
                    ("result", result, _worker_stats(backend, queries_served, spans))
                )
            elif op == "reset":
                if message[1]:
                    backend.reset_solutions()
                else:
                    backend.clear_caches()
                connection.send(("ok", _worker_stats(backend, queries_served)))
            elif op == "ping":
                connection.send(("ok", _worker_stats(backend, queries_served)))
            else:
                raise ValueError(f"unknown worker op {op!r}")
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            try:
                connection.send(
                    ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
                )
            except (OSError, BrokenPipeError):
                return


class PlanDirectory:
    """Parent-side registry: policy → (plan id, wire payload, cache key).

    One directory is shared by every worker handle of a pool.  The first
    request for a policy compiles it *once* on the parent's planner
    backend and caches the manager-independent payload; all later
    requests (from any worker handle, any thread) are dictionary hits.
    The lock is held across that first compile, which serialises plan
    compilation exactly like the thread pool's spec store does — replicas
    then rebuild from specs, they never re-compile.
    """

    def __init__(self, planner: "MatrixBackend"):
        self._planner = planner
        self._lock = threading.Lock()
        # id(policy) -> (policy, plan_id, fields, stage_specs, plan_key);
        # the policy is retained so a recycled id cannot alias.
        self._entries: dict[int, tuple] = {}
        # plan_id -> (fields, stage_specs): the respawn path re-ships a
        # dead worker's adopted plans by id, without the policy objects.
        self._by_id: dict[int, tuple] = {}
        self._next_id = 0

    @property
    def planner(self) -> "MatrixBackend":
        return self._planner

    def entry(self, policy) -> tuple[int, tuple, tuple, object]:
        """The ``(plan_id, fields, stage_specs, plan_key)`` of ``policy``."""
        found = self._entries.get(id(policy))
        if found is not None and found[0] is policy:
            return found[1:]
        with self._lock:
            found = self._entries.get(id(policy))
            if found is not None and found[0] is policy:
                return found[1:]
            fields, stage_specs = self._planner.plan_payload(policy)
            key = self._planner.plan_key(policy)
            plan_id = self._next_id
            self._next_id += 1
            self._entries[id(policy)] = (policy, plan_id, fields, stage_specs, key)
            self._by_id[plan_id] = (fields, stage_specs)
            return plan_id, fields, stage_specs, key

    def payload(self, plan_id: int) -> tuple | None:
        """The ``(fields, stage_specs)`` payload of ``plan_id``, if known.

        This is the respawn re-publication path: a fresh worker replacing
        a dead one re-adopts every plan the corpse had, straight from the
        directory — no policy object, no recompilation.
        """
        with self._lock:
            return self._by_id.get(plan_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ReplicaClient:
    """The shared parent-side surface of one worker replica.

    Implements exactly the backend surface a leased replica is driven
    through (``plan`` / ``plan_key`` / ``output_distributions`` /
    ``certainly_delivers`` / ``reset_solutions`` / ``clear_caches`` /
    ``timings`` / ``close``), translating each call into wire messages —
    so sessions, warmup, and benchmarks are drop-in between thread,
    process, and remote pools.  Subclasses supply ``_request`` (one
    message round trip over their transport) plus lifecycle; everything
    protocol-shaped lives here.  A handle is only ever driven under its
    replica's exclusive lease, hence one outstanding request at a time.
    """

    #: Where the replica runs ("local" or "HOST:PORT") and over what wire.
    host = "local"
    transport_kind = "pipe"
    #: Transport re-establishments for this slot (remote handles count up).
    reconnects = 0
    #: Heartbeat staleness observations (remote handles count up).
    heartbeat_misses = 0

    def __init__(
        self,
        index: int,
        directory: PlanDirectory,
        *,
        telemetry: Telemetry | None = None,
        carry_timings: dict | None = None,
    ):
        self.index = index
        self._directory = directory
        self._telemetry = telemetry
        # Phase timings accumulated by this slot's *previous* worker
        # incarnations (injected by the respawn path).  timings() adds the
        # live worker's snapshot on top, so a restart never makes the
        # slot's cumulative phase time go backwards.
        self._carry_timings: dict[str, float] = dict(carry_timings or {})
        self._closed = False
        #: The failure that killed this handle, when dead (sticky).
        self._failure: ReplicaFailure | None = None
        #: Plan ids this worker has adopted (ship-once bookkeeping).
        self._shipped: set[int] = set()
        #: Latest stats blob returned by the worker (refreshed per reply).
        self.worker_stats: dict = {}

    # -- wire plumbing ---------------------------------------------------------
    pid: int | None = None

    def _request(self, message: tuple) -> tuple:
        raise NotImplementedError

    def _accept(self, reply: tuple, op: str) -> tuple:
        """Common reply handling: semantic errors raise, stats refresh."""
        if reply[0] == "error":
            _, summary, trace = reply
            raise RuntimeError(
                f"worker {self.index} (pid {self.pid}) failed: {summary}\n{trace}"
            )
        self.worker_stats = reply[-1]
        return reply

    def adopt(self, plan_id: int, fields, stage_specs) -> None:
        """Ship one plan payload by id (the respawn re-publication path)."""
        self._request(("plan", plan_id, fields, stage_specs))
        self._shipped.add(plan_id)

    def _ensure_plan(self, policy) -> int:
        plan_id, fields, stage_specs, _key = self._directory.entry(policy)
        if plan_id not in self._shipped:
            self.adopt(plan_id, fields, stage_specs)
        return plan_id

    # -- backend surface (driven under a replica lease) ------------------------
    def plan(self, policy) -> int:
        """Ship ``policy``'s payload to the worker (the warmup hook)."""
        return self._ensure_plan(policy)

    def plan_key(self, policy) -> object:
        """The canonical manager-independent cache key (parent-side)."""
        return self._directory.entry(policy)[3]

    def output_distributions(self, policy, inputs) -> dict:
        """Per-ingress output distributions, computed in the worker.

        When the calling thread is inside a recording span (the lease
        span), its context rides the :class:`QuerySpec` into the worker
        and the worker's finished spans come back in the reply's stats
        blob, where they are ingested into the caller's tracer — one
        trace tree across the process boundary.
        """
        plan_id = self._ensure_plan(policy)
        trace = None
        telemetry = self._telemetry
        if telemetry is not None and telemetry.tracer.enabled:
            context = telemetry.tracer.current_context()
            if context is not None:
                trace = tuple(context)
        spec = QuerySpec.distributions(plan_id, inputs, trace=trace)
        _, result, stats = self._request(("query", spec))
        if trace is not None:
            telemetry.tracer.ingest(stats.get("spans") or ())
        return result.to_distributions()

    def certainly_delivers(self, model, tolerance: float = 1e-9) -> bool:
        """Delivery check: distributions in the worker, predicate here.

        The delivered predicate is an AST, so it never crosses the wire;
        the worker returns raw distributions and the parent applies the
        same ``_is_delivered`` semantics as every other entry point.
        """
        from repro.analysis.queries import _is_delivered

        dists = self.output_distributions(model.policy, model.ingress_packets)
        return all(
            float(dist.prob_of(lambda out: _is_delivered(out, model.delivered)))
            >= 1.0 - tolerance
            for dist in dists.values()
        )

    def ping(self) -> dict:
        """Round-trip liveness probe; returns (and caches) worker stats."""
        self._request(("ping",))
        return self.worker_stats

    def reset_solutions(self) -> None:
        """Drop the worker's solver state, keeping its adopted plans."""
        self._request(("reset", True))

    def clear_caches(self) -> None:
        """Drop the worker's plans and solver state (payloads re-ship lazily)."""
        self._request(("reset", False))
        self._shipped.clear()

    def timings(self) -> dict[str, float]:
        """The replica slot's cumulative phase timings across incarnations.

        The live worker's last-known snapshot *plus* the carry from every
        previous worker that served this slot (injected on respawn) — so
        a crashed-and-replaced worker never makes the slot's cumulative
        phase time go backwards, and session-level ``backend_timings``
        stay monotone under churn.  (Work a worker did after its last
        reply and before dying is unavoidably lost; monotonicity is the
        contract, not exactness.)
        """
        total = dict(self._carry_timings)
        timings = self.worker_stats.get("timings")
        if timings:
            for name, value in timings.items():
                total[name] = total.get(name, 0.0) + value
        return total

    def solver_stats(self) -> dict[str, int]:
        """The worker's last-known numeric-kernel counters.

        ``factorizations``/``schur_updates``/``assembly_rows`` from the
        stats blob of the most recent reply (see
        :meth:`~repro.backends.matrix.MatrixBackend.solver_stats`).
        Counters restart with the worker: a respawned replica reports its
        own work, not its predecessor's.
        """
        return dict(self.worker_stats.get("solver") or {})

    def close(self) -> None:
        raise NotImplementedError


class WorkerHandle(ReplicaClient):
    """The parent-side face of one *local* worker process.

    The transport is a :class:`~repro.service.transport.PipeTransport`
    over the worker's duplex pipe.  Failure detection: every request
    waits on the reply pipe *and* the worker's ``Process.sentinel``
    simultaneously, so a dead worker is noticed the moment the OS reaps
    it — not after a poll interval.  Death (and a ``shard_timeout``
    expiry, which kills the hung worker first) raises
    :class:`~repro.service.pool.ReplicaFailure`; the handle is then
    permanently dead and the pool's supervision replaces it with a fresh
    handle at the same replica index.  Semantic worker errors (bad
    query, unknown plan) still come back as ordinary ``RuntimeError`` —
    the worker survives those, nothing restarts.
    """

    def __init__(
        self,
        index: int,
        directory: PlanDirectory,
        context,
        *,
        shard_timeout: float | None = None,
        telemetry: Telemetry | None = None,
        carry_timings: dict | None = None,
    ):
        super().__init__(
            index, directory, telemetry=telemetry, carry_timings=carry_timings
        )
        self._timeout = shard_timeout
        conn, child_conn = context.Pipe(duplex=True)
        self._transport = PipeTransport(conn)
        self._process = context.Process(
            target=worker_main,
            args=(child_conn, index),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        # Safety net: an abandoned handle must not leak a worker process.
        self._finalizer = weakref.finalize(
            self, _terminate_process, self._process, self._transport.connection
        )

    # -- wire plumbing ---------------------------------------------------------
    @property
    def pid(self) -> int | None:
        """The worker process id (evidence of cross-process execution)."""
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._failure is None and self._process.is_alive()

    @property
    def exit_code(self) -> int | None:
        """The worker's exit code once dead (negative = killed by signal)."""
        return self._process.exitcode

    def _mark_dead(
        self, kind: str, detail: str, cause: BaseException | None = None
    ) -> ReplicaFailure:
        """Record this handle as permanently dead; returns the failure."""
        exit_code = self._process.exitcode
        hint = ""
        if kind == "crash":
            hint = (
                "; with the spawn start method this usually means the 'repro' "
                "package is not importable in child processes"
            )
        failure = ReplicaFailure(
            f"worker {self.index} (pid {self.pid}) {detail} "
            f"(exit code {exit_code}){hint}",
            replica=self.index,
            kind=kind,
            exit_code=exit_code,
        )
        if cause is not None:
            failure.__cause__ = cause
        self._failure = failure
        return failure

    def _request(self, message: tuple) -> tuple:
        if self._closed:
            raise RuntimeError("worker handle is closed")
        if self._failure is not None:
            raise self._failure
        op = message[0]
        try:
            self._transport.send(message)
        except (TransportError, ValueError) as exc:
            self._process.join(timeout=1.0)
            raise self._mark_dead("crash", f"pipe broke while sending {op!r}", exc)
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        sentinel = self._process.sentinel
        pipe = self._transport.connection
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Watchdog: the worker is hung (or stalling) past the
                    # per-shard budget.  Kill it so the caller can retry on
                    # a healthy replica instead of waiting forever.
                    self._process.kill()
                    self._process.join(timeout=5.0)
                    if self._telemetry is not None:
                        self._telemetry.tracer.event(
                            "watchdog-kill",
                            replica=self.index,
                            pid=self.pid,
                            op=op,
                            budget=self._timeout,
                        )
                    raise self._mark_dead(
                        "timeout",
                        f"did not answer {op!r} within {self._timeout:.3f}s "
                        "and was killed",
                    )
            ready = multiprocessing.connection.wait(
                [pipe, sentinel], timeout=remaining
            )
            if pipe in ready:
                try:
                    reply = self._transport.recv()
                except TransportError as exc:
                    self._process.join(timeout=1.0)
                    raise self._mark_dead(
                        "crash", f"pipe closed mid-reply to {op!r}", exc
                    )
                break
            if sentinel in ready:
                # The worker exited.  A final reply may still sit in the
                # pipe buffer (reply raced the exit) — drain it first.
                if pipe.poll(0):
                    continue
                self._process.join(timeout=1.0)
                raise self._mark_dead("crash", f"died while serving {op!r}")
        return self._accept(reply, op)

    def close(self) -> None:
        """Stop the worker and join it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        pipe = self._transport.connection
        try:
            if self._process.is_alive():
                pipe.send(("stop",))
                if pipe.poll(5.0):
                    reply = pipe.recv()
                    if reply and reply[0] == "ok":
                        self.worker_stats = reply[-1]
        except (OSError, BrokenPipeError, EOFError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._transport.close()
        self._finalizer.detach()


def _terminate_process(process, connection) -> None:
    """Finalizer: reap a worker whose handle was dropped without close()."""
    try:
        connection.close()
    except OSError:  # pragma: no cover - defensive
        pass
    if process.is_alive():
        process.terminate()
        process.join(timeout=5.0)


class RemoteWorkerHandle(ReplicaClient):
    """The parent-side face of one worker hosted by a remote host daemon.

    Speaks the identical worker protocol as :class:`WorkerHandle`, but
    over a checksummed, length-prefixed TCP transport
    (:class:`~repro.service.transport.SocketTransport`) to a
    :class:`~repro.service.host.HostServer`, which spawns and locally
    supervises the actual worker process.

    Liveness is **wire-driven** (there is no OS sentinel to wait on):

    * a dedicated receive thread owns the inbound side of the socket —
      host heartbeats and replies both refresh ``last_heartbeat``, reply
      frames land in a queue for the (single) outstanding request, and a
      ``("worker-died", exitcode)`` notification from the host's local
      supervision surfaces as ``ReplicaFailure(kind="crash")``;
    * a corrupt frame (truncated, bad checksum, oversize) poisons the
      connection and surfaces as ``ReplicaFailure(kind="transport")`` —
      framing cannot be trusted to resynchronise, so the pool reconnects;
    * a ``shard_timeout`` expiry *drops the connection* instead of
      killing a process it cannot reach — the host daemon kills the hung
      worker the moment its relay loses the client, so the cleanup
      contract matches the local watchdog.

    Like every handle, a failed ``RemoteWorkerHandle`` is permanently
    dead; the pool's respawn machinery replaces it (same host, failover
    host, or local fallback) and re-ships its plans as specs.
    """

    transport_kind = "tcp"

    #: Queue sentinel: the receive thread died, the sticky failure is set.
    _FAILED = object()

    def __init__(
        self,
        index: int,
        directory: PlanDirectory,
        address: tuple[str, int],
        *,
        shard_timeout: float | None = None,
        telemetry: Telemetry | None = None,
        carry_timings: dict | None = None,
        reconnects: int = 0,
        heartbeat_misses: int = 0,
        connect_timeout: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME,
    ):
        super().__init__(
            index, directory, telemetry=telemetry, carry_timings=carry_timings
        )
        self._timeout = shard_timeout
        self.address = (str(address[0]), int(address[1]))
        self.host = f"{self.address[0]}:{self.address[1]}"
        self.reconnects = reconnects
        # Cumulative for the slot, carried across respawns like
        # ``reconnects`` — a partition's misses must survive the very
        # teardown they caused.
        self.heartbeat_misses = heartbeat_misses
        self.last_heartbeat = time.monotonic()
        self._exit_code: int | None = None
        self._pid: int | None = None
        # Reentrant: the monitor's probe() takes it non-blocking, then
        # _request takes it again on the same thread.
        self._io_lock = threading.RLock()
        self._replies: queue.SimpleQueue = queue.SimpleQueue()
        self._transport = SocketTransport.connect(
            self.address[0],
            self.address[1],
            timeout=connect_timeout,
            max_frame_bytes=max_frame_bytes,
        )
        try:
            self._transport.send(("attach", {"replica": index}))
            hello = self._transport.recv(timeout=connect_timeout)
        except TransportError:
            self._transport.close()
            raise
        if not (isinstance(hello, tuple) and hello and hello[0] == "attached"):
            self._transport.close()
            detail = hello[1] if isinstance(hello, tuple) and len(hello) > 1 else hello
            raise TransportError(f"host {self.host} refused attach: {detail!r}")
        #: Host-reported attachment facts (worker pid, host id, capacity).
        self.attach_info: dict = dict(hello[1])
        self._pid = self.attach_info.get("pid")
        self.last_heartbeat = time.monotonic()
        self._rx = threading.Thread(
            target=self._recv_loop, name=f"repro-remote-rx-{index}", daemon=True
        )
        self._rx.start()

    # -- wire plumbing ---------------------------------------------------------
    @property
    def pid(self) -> int | None:
        """The *remote* worker's process id (from the attach handshake)."""
        return self._pid

    @property
    def alive(self) -> bool:
        return self._failure is None and not self._closed

    @property
    def exit_code(self) -> int | None:
        """The remote worker's exit code, when its host reported death."""
        return self._exit_code

    @property
    def failure(self) -> ReplicaFailure | None:
        """The sticky failure that condemned this handle, if any."""
        return self._failure

    def _mark_dead(
        self, kind: str, detail: str, cause: BaseException | None = None
    ) -> ReplicaFailure:
        """Record this handle as permanently dead; first failure sticks."""
        failure = ReplicaFailure(
            f"remote worker {self.index} on {self.host} (pid {self._pid}) {detail}",
            replica=self.index,
            kind=kind,
            exit_code=self._exit_code,
        )
        if cause is not None:
            failure.__cause__ = cause
        if self._failure is None:
            self._failure = failure
        return self._failure

    def _fail_async(
        self, kind: str, detail: str, cause: BaseException | None = None
    ) -> None:
        """Receive-thread failure path: condemn, tear down, wake the waiter."""
        self._mark_dead(kind, detail, cause)
        self._transport.close()
        self._replies.put(self._FAILED)

    def _recv_loop(self) -> None:
        """Own the inbound socket: heartbeats, replies, death notices."""
        while True:
            try:
                message = self._transport.recv()
            except FrameError as exc:
                self._fail_async("transport", f"received a corrupt frame ({exc})", exc)
                return
            except TransportError as exc:
                if self._closed:
                    return
                kind = "crash" if isinstance(exc, TransportClosed) else "transport"
                self._fail_async(kind, f"lost the host connection ({exc})", exc)
                return
            # Any frame is proof of liveness — heartbeats keep flowing
            # from the host relay even while the worker is mid-solve.
            self.last_heartbeat = time.monotonic()
            op = message[0] if isinstance(message, tuple) and message else None
            if op == "heartbeat":
                continue
            if op == "worker-died":
                self._exit_code = message[1]
                self._fail_async(
                    "crash", f"died remotely (exit code {message[1]})"
                )
                return
            self._replies.put(message)

    def _request(self, message: tuple, *, timeout: float | None = -1.0) -> tuple:
        budget = self._timeout if timeout == -1.0 else timeout
        with self._io_lock:
            if self._closed:
                raise RuntimeError("worker handle is closed")
            if self._failure is not None:
                raise self._failure
            op = message[0]
            try:
                self._transport.send(message)
            except TransportError as exc:
                failure = self._mark_dead(
                    "transport", f"send failed for {op!r} ({exc})", exc
                )
                self._transport.close()
                raise failure
            deadline = None if budget is None else time.monotonic() + budget
            while True:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # Wire watchdog: drop the connection.  The host
                        # daemon kills the (possibly hung) worker the
                        # moment its relay loses this client, so remote
                        # timeouts clean up exactly like local ones.
                        if self._telemetry is not None:
                            self._telemetry.tracer.event(
                                "watchdog-kill",
                                replica=self.index,
                                pid=self.pid,
                                op=op,
                                budget=budget,
                                host=self.host,
                            )
                        failure = self._mark_dead(
                            "timeout",
                            f"did not answer {op!r} within {budget:.3f}s; "
                            "connection dropped",
                        )
                        self._transport.close()
                        raise failure
                try:
                    reply = self._replies.get(timeout=remaining)
                except queue.Empty:
                    continue
                if reply is self._FAILED:
                    raise self._failure
                return self._accept(reply, op)

    def probe(self, timeout: float = 1.0) -> bool:
        """Monitor-side liveness probe (never blocks behind a request).

        A handle whose io lock is held has a request in flight — report
        it alive and let that request's own deadline (or a stale-
        heartbeat teardown) decide.  Otherwise round-trip a ``ping``
        with its own short budget.
        """
        if self._failure is not None:
            return False
        if not self._io_lock.acquire(timeout=0.05):
            return True
        try:
            self._request(("ping",), timeout=timeout)
            return True
        except (ReplicaFailure, RuntimeError):
            return False
        finally:
            self._io_lock.release()

    def fail_stale(self, stale: float) -> ReplicaFailure:
        """Condemn a handle whose heartbeats stopped (partition suspected).

        Closing the transport wakes the receive thread (which wakes any
        in-flight request) and makes the host daemon — if it is still
        alive on the far side of a one-way partition — kill the worker.
        """
        failure = self._mark_dead(
            "transport", f"no heartbeat for {stale:.2f}s (partition suspected)"
        )
        self._transport.close()
        return failure

    def close(self) -> None:
        """Stop the remote worker and drop the connection (idempotent)."""
        if self._closed:
            return
        with self._io_lock:
            if self._closed:
                return
            if self._failure is None:
                try:
                    self._transport.send(("stop",))
                    deadline = time.monotonic() + 5.0
                    while True:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        try:
                            reply = self._replies.get(timeout=remaining)
                        except queue.Empty:
                            break
                        if reply is self._FAILED:
                            break
                        if reply and reply[0] == "ok":
                            self.worker_stats = reply[-1]
                            break
                except TransportError:
                    pass
            self._closed = True
        self._transport.close()
        self._rx.join(timeout=5.0)


class ProcessBackendPool(BackendPool):
    """N worker processes, each hosting a full backend replica.

    Drop-in for :class:`~repro.service.pool.BackendPool` — same exclusive
    leases, same affinity-first/steal-second routing, same ``stats()``
    shape — but every replica is a :class:`WorkerHandle` fronting a
    worker process, so *all* phases of shard execution (plan rebuild,
    matrix assembly, factorization, solve) run outside the parent's GIL.

    Parameters
    ----------
    backend:
        The parent-side planner backend.  It never serves shard queries;
        it compiles each policy once and produces the wire payloads and
        canonical cache keys workers and sessions share.  Must support
        spec shipping (``plan_payload``/``plan_key`` — the matrix
        backend; the native family cannot host process replicas).
    size:
        Number of worker processes (≥ 1).
    owns_base:
        Whether closing the pool also closes the planner backend
        (workers are always pool-owned and always joined on close).
    start_method:
        Multiprocessing start method; default ``fork`` where available
        (fast, inherits ``sys.path``), else ``spawn``.  Also overridable
        via the ``REPRO_POOL_START_METHOD`` environment variable.
    shard_timeout:
        Per-request wall-clock watchdog in seconds.  A worker that does
        not answer within the budget is killed, reported as a
        ``kind="timeout"`` :class:`~repro.service.pool.ReplicaFailure`,
        and respawned — so a hung worker degrades into a retried shard
        instead of a stuck batch.  ``None`` (default) disables the
        watchdog.
    """

    mode = "process"

    def __init__(
        self,
        backend: object,
        size: int = 1,
        *,
        owns_base: bool = False,
        start_method: str | None = None,
        shard_timeout: float | None = None,
        telemetry: Telemetry | None = None,
    ):
        if not hasattr(backend, "plan_payload") or not hasattr(backend, "plan_key"):
            raise TypeError(
                f"backend {type(backend).__name__} cannot host process replicas: "
                "spec shipping needs plan_payload()/plan_key() (use the matrix "
                "backend, or pool_mode='thread')"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        self._start_method = _pick_start_method(start_method)
        self._shard_timeout = shard_timeout
        self._directory = PlanDirectory(backend)
        super().__init__(backend, size, owns_base=owns_base, telemetry=telemetry)

    def _new_handle(self, index: int, carry_timings: dict | None = None) -> WorkerHandle:
        return WorkerHandle(
            index,
            self._directory,
            self._context,
            shard_timeout=self._shard_timeout,
            telemetry=self._telemetry,
            carry_timings=carry_timings,
        )

    def _create_replicas(self, backend: object, size: int) -> list[Replica]:
        self._context = multiprocessing.get_context(self._start_method)
        with _importable_package_path(self._start_method):
            return [Replica(index, self._new_handle(index)) for index in range(size)]

    def _spawn_backend(self, index: int) -> WorkerHandle:
        """Start one more worker process (the ``resize`` growth hook).

        New workers join with empty plan caches; the shared
        :class:`PlanDirectory` re-ships each compiled plan payload the
        first time the fresh worker is asked about the policy, so growth
        needs no parent-side recompilation.
        """
        with _importable_package_path(self._start_method):
            return self._new_handle(index)

    def _respawn_backend(self, index: int, dead: object) -> WorkerHandle:
        """Spawn a replacement worker and re-publish the corpse's plans.

        The fresh worker re-adopts every plan id the dead worker had
        shipped, straight from the parent-side :class:`PlanDirectory` —
        as manager-independent specs, never as ASTs — so the respawned
        replica serves its destinations immediately and its
        ``ast_compilations`` counter stays 0.  The corpse's cumulative
        phase timings (its own carry plus its last snapshot) are handed
        to the replacement as carry, so the slot's reported phase time
        never resets across restarts.
        """
        carry = dead.timings() if isinstance(dead, ReplicaClient) else None
        with _importable_package_path(self._start_method):
            handle = self._new_handle(index, carry_timings=carry)
        try:
            self._reship(handle, dead)
        except Exception:
            handle.close()  # the replacement died too: reap, then give up
            raise
        return handle

    def _reship(self, handle: ReplicaClient, dead: object) -> None:
        """Re-publish a corpse's adopted plans to its replacement, by id."""
        for plan_id in sorted(getattr(dead, "_shipped", ())):
            payload = self._directory.payload(plan_id)
            if payload is not None:
                handle.adopt(plan_id, *payload)

    @property
    def directory(self) -> PlanDirectory:
        """The shared plan directory (parent-side compile-once registry)."""
        return self._directory

    @property
    def start_method(self) -> str:
        return self._start_method

    @property
    def shard_timeout(self) -> float | None:
        return self._shard_timeout

    def workers(self) -> list[WorkerHandle]:
        """The worker handles, in replica order."""
        return [replica.backend for replica in self.replicas]

    def worker_reports(self) -> list[dict]:
        """Fresh per-worker stats, fetched through the ordinary lease path.

        Every report carries ``index`` and ``health``; a dead or
        restarting replica is reported as ``{"index", "health", "pid",
        "exit_code", "error"}`` instead of raising through the lease
        path, so introspection keeps working while the pool is healing.
        A worker found dead *by* the probe itself is quarantined as a
        side effect (the ordinary supervision path) and reported in
        whatever state that leaves it.
        """
        reports: list[dict] = []
        index = 0
        while True:
            with self._cv:
                if index >= len(self.replicas):
                    break
                replica = self.replicas[index]
                health = replica.health
            report = None
            if health == HEALTHY:
                try:
                    with self.lease_replica(index) as leased:
                        backend = leased.backend
                        report = dict(backend.ping())
                        report["health"] = HEALTHY
                        report["host"] = getattr(backend, "host", "local")
                        report["transport"] = getattr(backend, "transport_kind", "pipe")
                        report["reconnects"] = getattr(backend, "reconnects", 0)
                        report["heartbeat_misses"] = getattr(
                            backend, "heartbeat_misses", 0
                        )
                except ReplicaFailure:
                    pass  # died under the probe: fall through to a status report
                except RuntimeError:
                    break  # pool closed (or shrank past index) mid-walk
            if report is None:
                with self._cv:
                    if index >= len(self.replicas):
                        break
                    replica = self.replicas[index]
                    backend = replica.backend
                    report = {
                        "health": replica.health,
                        "pid": getattr(backend, "pid", None),
                        "exit_code": replica.exit_code,
                        "error": replica.last_error,
                        "host": getattr(backend, "host", "local"),
                        "transport": getattr(backend, "transport_kind", "pipe"),
                        "reconnects": getattr(backend, "reconnects", 0),
                        "heartbeat_misses": getattr(backend, "heartbeat_misses", 0),
                    }
            report["index"] = index
            reports.append(report)
            index += 1
        return reports

    def _owns_replica(self, replica: Replica) -> bool:
        # Every replica fronts a pool-spawned worker process; all of them
        # are stopped and joined on close, regardless of owns_base (which
        # only governs the parent-side planner backend).
        return True

    def _close_base(self) -> None:
        if self._owns_base:
            closer = getattr(self._directory.planner, "close", None)
            if closer is not None:
                closer()


def parse_host_list(hosts) -> list[tuple[str, int]]:
    """Normalise ``hosts`` (``"HOST:PORT"`` strings or pairs) to tuples."""
    parsed: list[tuple[str, int]] = []
    for entry in hosts:
        if isinstance(entry, str):
            host, sep, port = entry.rpartition(":")
            if not sep or not host:
                raise ValueError(f"host spec {entry!r} must be HOST:PORT")
            parsed.append((host, int(port)))
        else:
            host, port = entry
            parsed.append((str(host), int(port)))
    if not parsed:
        raise ValueError("a remote pool needs at least one HOST:PORT host")
    return parsed


def _addr_str(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


class RemoteBackendPool(ProcessBackendPool):
    """Replicas leased on remote worker hosts over TCP, with host failover.

    Drop-in for :class:`ProcessBackendPool` — the *unchanged*
    lease/affinity/steal protocol of :class:`~repro.service.pool.BackendPool`
    drives :class:`RemoteWorkerHandle` replicas attached round-robin
    across one or more ``HOST:PORT`` host daemons
    (:class:`~repro.service.host.HostServer`).  Plans still compile once
    in the parent's :class:`PlanDirectory` and ship once per (worker,
    plan) as AST-free specs, so remote workers also assert
    ``ast_compilations == 0`` forever, across any number of reconnects.

    Robustness model, layered on the base pool's health machine:

    * **liveness** is wire-driven: host relays emit heartbeats on an
      interval; a monitor thread walks idle replicas and runs
      missed-heartbeat → suspect (count a miss, probe with a short
      ``ping``) → condemn (tear the connection down, quarantine) —
      mirroring PR 7's sentinel-driven state machine for peers no OS
      sentinel can see.  Busy replicas are covered by their request's
      own ``shard_timeout`` and by the condemn-path teardown, which
      wakes the in-flight waiter;
    * **reconnect** (the ``_respawn_backend`` hook, on the pool's usual
      respawn thread) retries with exponential backoff + full jitter,
      preferring the dead replica's home host; a fresh connection
      re-ships the corpse's plan specs, and because the replacement
      lands at the same replica index, destination affinities re-attach
      untouched;
    * **failover**: when the home host stays unreachable, the slot
      re-homes onto a surviving host (counted, traced, and exported as
      ``repro_host_failovers_total``); when *every* remote host is gone
      the slot degrades to a local :class:`WorkerHandle` process
      (``local_fallback=True``), all under the existing
      ``max_attempts``/:class:`~repro.service.pool.PoolUnavailable`
      contract — callers never see a new failure mode.

    Every partition/reconnect/failover lands in the telemetry timeline
    (``heartbeat-missed``, ``host-partition-suspected``,
    ``remote-reconnect``, ``host-failover``, ``remote-local-fallback``)
    and in the metrics registry (``repro_remote_reconnects_total``,
    ``repro_host_failovers_total``).
    """

    mode = "remote"

    def __init__(
        self,
        backend: object,
        hosts,
        size: int | None = None,
        *,
        owns_base: bool = False,
        start_method: str | None = None,
        shard_timeout: float | None = None,
        telemetry: Telemetry | None = None,
        heartbeat_interval: float = 0.2,
        suspect_after: float = 3.0,
        condemn_after: float = 15.0,
        reconnect_attempts: int = 4,
        reconnect_backoff: float = 0.05,
        reconnect_max_backoff: float = 2.0,
        local_fallback: bool = True,
        connect_timeout: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME,
    ):
        self._addresses = parse_host_list(hosts)
        if not self._addresses:
            raise ValueError("remote pool needs at least one HOST:PORT")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if condemn_after <= suspect_after:
            raise ValueError("condemn_after must exceed suspect_after")
        self._heartbeat_interval = heartbeat_interval
        self._suspect_after = suspect_after
        self._condemn_after = condemn_after
        self._reconnect_attempts = max(1, int(reconnect_attempts))
        self._reconnect_backoff = reconnect_backoff
        self._reconnect_max_backoff = reconnect_max_backoff
        self._local_fallback = local_fallback
        self._connect_timeout = connect_timeout
        self._max_frame_bytes = max_frame_bytes
        #: replica index -> the host currently considered its home.
        self._slot_home: dict[int, tuple[str, int]] = {}
        self._failovers = 0
        self._remote_reconnects = 0
        self._local_fallbacks = 0
        self._stop_monitor = threading.Event()
        self._monitor: threading.Thread | None = None
        self._reconnect_counter = None
        self._failover_counter = None
        if telemetry is not None:
            self._reconnect_counter = telemetry.metrics.counter(
                "repro_remote_reconnects_total",
                "Remote replica connections re-established after a failure",
            )
            self._failover_counter = telemetry.metrics.counter(
                "repro_host_failovers_total",
                "Replicas re-homed onto another host (or locally) after host loss",
            )
        if size is None:
            size = 2 * len(self._addresses)
        super().__init__(
            backend,
            size,
            owns_base=owns_base,
            start_method=start_method,
            shard_timeout=shard_timeout,
            telemetry=telemetry,
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-remote-monitor", daemon=True
        )
        self._monitor.start()

    # -- attachment ------------------------------------------------------------
    @property
    def hosts(self) -> list[str]:
        """The configured host daemons, as ``HOST:PORT`` strings."""
        return [_addr_str(address) for address in self._addresses]

    def _create_replicas(self, backend: object, size: int) -> list[Replica]:
        # The context exists for the local-fallback path only; remote
        # replicas are attached, not spawned.
        self._context = multiprocessing.get_context(self._start_method)
        return [Replica(index, self._attach_handle(index)) for index in range(size)]

    def _candidate_addresses(self, index: int) -> list[tuple[str, int]]:
        """Connection order for slot ``index``: home host first, then the rest."""
        home = self._slot_home.get(index, self._addresses[index % len(self._addresses)])
        return [home] + [address for address in self._addresses if address != home]

    def _attach_handle(
        self,
        index: int,
        *,
        dead: object | None = None,
        carry_timings: dict | None = None,
    ) -> ReplicaClient | None:
        """Connect slot ``index`` to a host; failover and fall back as needed.

        The construction path (``dead is None``) tries every host once
        and raises :class:`~repro.service.pool.PoolUnavailable` when none
        answers (unless local fallback is on).  The respawn path retries
        for ``reconnect_attempts`` rounds with exponential backoff + full
        jitter between rounds, then falls back locally (when enabled) or
        reports permanent death with ``None``.
        """
        respawn = dead is not None
        candidates = self._candidate_addresses(index)
        home = candidates[0]
        attempts = self._reconnect_attempts if respawn else 1
        reconnects = getattr(dead, "reconnects", 0) + 1 if respawn else 0
        heartbeat_misses = getattr(dead, "heartbeat_misses", 0)
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                cap = min(
                    self._reconnect_max_backoff,
                    self._reconnect_backoff * (2 ** (attempt - 1)),
                )
                time.sleep(random.uniform(0.0, cap))  # full jitter
            for address in candidates:
                try:
                    handle = RemoteWorkerHandle(
                        index,
                        self._directory,
                        address,
                        shard_timeout=self._shard_timeout,
                        telemetry=self._telemetry,
                        carry_timings=carry_timings,
                        reconnects=reconnects,
                        heartbeat_misses=heartbeat_misses,
                        connect_timeout=self._connect_timeout,
                        max_frame_bytes=self._max_frame_bytes,
                    )
                except (TransportError, OSError) as exc:
                    last_error = exc
                    continue
                self._slot_home.setdefault(index, address)
                if respawn:
                    self._note_recovery(index, home, address, handle)
                return handle
        if self._local_fallback:
            with _importable_package_path(self._start_method):
                handle = WorkerHandle(
                    index,
                    self._directory,
                    self._context,
                    shard_timeout=self._shard_timeout,
                    telemetry=self._telemetry,
                    carry_timings=carry_timings,
                )
            self._note_local_fallback(index, home)
            return handle
        if respawn:
            return None  # permanent death: the base pool marks the slot DEAD
        raise PoolUnavailable(
            f"no remote host reachable for replica {index} "
            f"(tried {[_addr_str(a) for a in candidates]}): {last_error}"
        )

    def _note_recovery(
        self,
        index: int,
        home: tuple[str, int],
        address: tuple[str, int],
        handle: RemoteWorkerHandle,
    ) -> None:
        failover = address != home
        with self._cv:
            self._remote_reconnects += 1
            if failover:
                self._failovers += 1
                self._slot_home[index] = address
        if self._reconnect_counter is not None:
            self._reconnect_counter.inc()
        if failover and self._failover_counter is not None:
            self._failover_counter.inc()
        self._trace_mark(
            "host-failover" if failover else "remote-reconnect",
            replica=index,
            origin=_addr_str(home),
            host=handle.host,
            reconnects=handle.reconnects,
        )

    def _note_local_fallback(self, index: int, home: tuple[str, int]) -> None:
        with self._cv:
            self._failovers += 1
            self._local_fallbacks += 1
        if self._failover_counter is not None:
            self._failover_counter.inc()
        self._trace_mark(
            "remote-local-fallback", replica=index, origin=_addr_str(home)
        )

    def _trace_mark(self, name: str, **attrs) -> None:
        """Record a supervision event as a (root) span in the trace tree.

        Reconnect/failover work runs on respawn and monitor threads with
        no current span, where ``tracer.event`` would be dropped — a
        zero-length root span keeps the incident visible in the same
        timeline as the request traffic around it.
        """
        if self._telemetry is None:
            return
        tracer = self._telemetry.tracer
        if not tracer.enabled:
            return
        with tracer.span(name, **attrs):
            pass

    # -- supervision hooks -----------------------------------------------------
    def _spawn_backend(self, index: int) -> ReplicaClient | None:
        try:
            return self._attach_handle(index)
        except PoolUnavailable:
            return None  # resize growth degrades, like the thread pool

    def _respawn_backend(self, index: int, dead: object) -> ReplicaClient | None:
        carry = dead.timings() if isinstance(dead, ReplicaClient) else None
        handle = self._attach_handle(index, dead=dead, carry_timings=carry)
        if handle is None:
            return None
        try:
            self._reship(handle, dead)
        except Exception:
            handle.close()  # the replacement died too: reap, then give up
            raise
        return handle

    def _monitor_loop(self) -> None:
        """Heartbeat watcher: missed-heartbeat → suspect → probe → condemn."""
        interval = self._heartbeat_interval
        while not self._stop_monitor.wait(interval):
            with self._cv:
                if self._closed:
                    return
                snapshot = [
                    replica for replica in self.replicas if replica.health == HEALTHY
                ]
            now = time.monotonic()
            for replica in snapshot:
                handle = replica.backend
                if not isinstance(handle, RemoteWorkerHandle):
                    continue  # local-fallback slots have OS-sentinel supervision
                failure = handle.failure
                if failure is not None:
                    # The receive thread already condemned it; quarantine
                    # an idle corpse now instead of at its next lease.
                    self._condemn_idle(replica, failure)
                    continue
                stale = now - handle.last_heartbeat
                if stale < interval * self._suspect_after:
                    continue
                handle.heartbeat_misses += 1
                self._trace_mark(
                    "heartbeat-missed",
                    replica=replica.index,
                    host=handle.host,
                    stale=round(stale, 3),
                    misses=handle.heartbeat_misses,
                )
                if stale >= interval * self._condemn_after:
                    failure = handle.fail_stale(stale)
                    self._trace_mark(
                        "host-partition-suspected",
                        replica=replica.index,
                        host=handle.host,
                        stale=round(stale, 3),
                    )
                    self._condemn_idle(replica, failure)
                elif not handle.probe(timeout=max(interval * self._suspect_after, 0.5)):
                    self._condemn_idle(
                        replica,
                        handle.failure
                        or ReplicaFailure(
                            f"replica {replica.index} failed its liveness probe",
                            replica=replica.index,
                            kind="transport",
                        ),
                    )

    def _condemn_idle(self, replica: Replica, failure: ReplicaFailure) -> None:
        """Quarantine a condemned replica that no lease is driving.

        A busy replica's in-flight request fails on its own (the condemn
        teardown wakes it) and quarantines through the ordinary lease
        path; quarantining here too would double-count.  The health
        check inside ``_quarantine`` makes the race (lease granted
        between this check and the call) resolve to exactly one winner.
        """
        with self._cv:
            if replica.health != HEALTHY or replica.busy:
                return
        self._quarantine(replica, failure)

    # -- introspection / lifecycle ---------------------------------------------
    def stats(self) -> dict[str, object]:
        stats = super().stats()
        with self._cv:
            stats["hosts_configured"] = self.hosts
            stats["failovers"] = self._failovers
            stats["remote_reconnects"] = self._remote_reconnects
            stats["local_fallbacks"] = self._local_fallbacks
        return stats

    def close(self) -> None:
        self._stop_monitor.set()
        super().close()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)


#: Serialises _importable_package_path: os.environ is process-global, so
#: concurrent spawn-mode pool constructions must not interleave their
#: save/mutate/restore of PYTHONPATH (interleaving could drop the
#: variable mid-start or leak the mutated value permanently).
_ENV_LOCK = threading.Lock()


class _importable_package_path:
    """Make ``repro`` importable in spawned children via ``PYTHONPATH``.

    ``spawn``/``forkserver`` children re-import :func:`worker_main`'s
    module from scratch; when the package is driven from a source tree
    (``PYTHONPATH=src``) rather than installed, the child needs the same
    path.  Temporarily prepending the package root to ``PYTHONPATH``
    around process start covers both layouts.  ``fork`` children inherit
    ``sys.path`` directly, so fork mode touches nothing.  The environment
    mutation is process-global, hence guarded by a module lock for the
    (short) duration of worker start-up.
    """

    def __init__(self, start_method: str):
        self._active = start_method != "fork"

    def __enter__(self) -> None:
        if not self._active:
            return
        import repro

        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        _ENV_LOCK.acquire()
        self._previous = os.environ.get("PYTHONPATH")
        parts = [root] + ([self._previous] if self._previous else [])
        os.environ["PYTHONPATH"] = os.pathsep.join(parts)

    def __exit__(self, *exc) -> None:
        if not self._active:
            return
        try:
            if self._previous is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = self._previous
        finally:
            _ENV_LOCK.release()


__all__ = [
    "PlanDirectory",
    "ProcessBackendPool",
    "RemoteBackendPool",
    "RemoteWorkerHandle",
    "ReplicaClient",
    "WorkerHandle",
    "parse_host_list",
    "worker_main",
]
