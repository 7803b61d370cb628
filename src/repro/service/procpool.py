"""Replica sources: where a pool's replicas live, and the one client for workers.

A :class:`~repro.service.pool.BackendPool` leases, routes, and
supervises replicas; the *source* it is given builds them.  There are
two, picked by :func:`open_pool` from the session's ``pool_mode``:

* :class:`InProcess` (``"thread"``) — exactly one replica, the session's
  own backend, called directly: no codec, no copy;
* :class:`ProcessReplicas` (``"process"``) — one :func:`worker_main`
  process per replica, driven by a :class:`ReplicaClient` over a
  :class:`~repro.service.transport.PipeTransport`, so compile-free plan
  rebuilds, matrix assembly, and solving all overlap across cores.

Nothing manager-bound and no ASTs cross the process boundary
(:mod:`repro.service.wire`):

* the parent keeps one *planner backend* whose only job is compiling
  policies once and producing their manager-independent ``(fields,
  stage_specs)`` payloads and canonical
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

Because plan payloads are per-task data, one long-lived worker serves
any number of destinations and loop bodies without restarting.

Lock note: a :class:`ReplicaClient` is only ever driven under its
replica's exclusive lease, so the worker protocol needs no lock of its
own; the :class:`PlanDirectory` lock *may* compile (parent-side, first
time a policy is seen) — it is therefore only ever taken from inside a
lease or from warmup, never while holding the session state lock.

Supervision: worker liveness is the pipe's job — it waits on the
worker's OS sentinel — and the client's one request loop turns what the
pipe reports into a :class:`~repro.service.pool.ReplicaFailure`.  A
``shard_timeout`` arms a per-request watchdog: a worker that does not
answer in time is killed and reported as ``kind="timeout"``.  The
pool's quarantine/respawn machinery then asks the source for a fresh
worker at the same index, which re-adopts every plan the dead worker had
from the parent-side :class:`PlanDirectory` — as specs, so respawned
workers still report 0 AST compilations.  Fault injection for all of this lives in
:mod:`repro.service.faults` (``REPRO_FAULTS``), which
:func:`worker_main` consults around query requests only.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from typing import TYPE_CHECKING

from repro.core.answer import delivered_mass
from repro.service.faults import FaultPlan
from repro.service.pool import BackendPool, ReplicaFailure
from repro.service.telemetry import Telemetry, Tracer
from repro.service.transport import PipeTransport, TransportClosed, TransportTimeout
from repro.service.wire import QuerySpec, ResultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.matrix import MatrixBackend

#: Environment override for the worker start method ("fork", "spawn", ...).
START_METHOD_ENV = "REPRO_POOL_START_METHOD"


def _pick_start_method(requested: str | None) -> str:
    """The multiprocessing start method for worker processes.

    ``fork`` (when the platform offers it) makes workers available in
    milliseconds; ``spawn`` is the portable fallback (it hands the
    parent's ``sys.path`` to the child, so a source-tree checkout works
    either way).  The ``REPRO_POOL_START_METHOD`` environment variable
    and the ``start_method=`` parameter both override.
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
    which the parent-side client ingests into its tracer.
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

    One directory is shared by every client of a source.  The first
    request for a policy compiles it *once* on the parent's planner
    backend and caches the manager-independent payload; all later
    requests (from any client, any thread) are dictionary hits.  The
    lock is held across that first compile, which serialises plan
    compilation — replicas then rebuild from specs, they never
    re-compile.
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


#: ``_request``'s default: the client's own per-shard budget.
_SHARD_BUDGET = object()


class ReplicaClient:
    """The parent-side face of one worker process, over its pipe.

    Implements exactly the backend surface a leased replica is driven
    through (``plan`` / ``plan_key`` / ``output_distributions`` /
    ``certainly_delivers`` / ``reset_solutions`` / ``clear_caches`` /
    ``timings`` / ``close``), translating each call into worker protocol
    messages — so sessions, warmup, and benchmarks are drop-in between
    pool modes.  The pipe carries the messages and watches the worker
    (see :mod:`repro.service.transport`); :meth:`_request`, the one
    request loop, maps what it reports onto
    :class:`~repro.service.pool.ReplicaFailure`:

    * :class:`~repro.service.transport.TransportClosed` (the worker
      exited, the pipe was lost) → ``kind="crash"``;
    * :class:`~repro.service.transport.TransportTimeout` (no answer
      within ``shard_timeout``) → the worker is killed, then
      ``kind="timeout"``.

    A failed client is permanently dead; the pool's supervision replaces
    it with a fresh client at the same replica index.  Semantic worker
    errors (bad query, unknown plan) come back as ordinary
    ``RuntimeError`` — the worker survives those, nothing restarts.  A
    client is only ever driven under its replica's exclusive lease,
    hence one outstanding request at a time.
    """

    def __init__(
        self,
        index: int,
        directory: PlanDirectory,
        transport: PipeTransport,
        *,
        shard_timeout: float | None = None,
        telemetry: Telemetry | None = None,
        carry_timings: dict | None = None,
    ):
        self.index = index
        self.transport = transport
        self._directory = directory
        self._timeout = shard_timeout
        self._telemetry = telemetry
        # Phase timings accumulated by this slot's *previous* worker
        # incarnations (injected by the respawn path).  timings() adds the
        # live worker's snapshot on top, so a restart never makes the
        # slot's cumulative phase time go backwards.
        self._carry_timings: dict[str, float] = dict(carry_timings or {})
        self._closed = False
        #: The failure that killed this client, when dead (sticky).
        self._failure: ReplicaFailure | None = None
        #: Plan ids this worker has adopted (ship-once bookkeeping).
        self._shipped: set[int] = set()
        #: Latest stats blob returned by the worker (refreshed per reply).
        self.worker_stats: dict = {}

    # -- placement (read by pool stats and worker reports) ---------------------
    @property
    def pid(self) -> int | None:
        """The worker's process id (evidence of cross-process execution)."""
        return self.transport.pid

    @property
    def exit_code(self) -> int | None:
        """The worker's exit code once dead, when known (negative = signal)."""
        return self.transport.exit_code

    @property
    def alive(self) -> bool:
        return self._failure is None and not self._closed

    @property
    def failure(self) -> ReplicaFailure | None:
        """The sticky failure that condemned this client, if any."""
        return self._failure

    # -- the request loop ------------------------------------------------------
    def _mark_dead(self, kind: str, detail: str, cause: BaseException) -> ReplicaFailure:
        """Record this client as permanently dead; the first failure sticks."""
        if self._failure is None:
            failure = ReplicaFailure(
                f"worker {self.index} (pid {self.pid}) {detail}",
                replica=self.index,
                kind=kind,
                exit_code=self.exit_code,
            )
            failure.__cause__ = cause
            self._failure = failure
        return self._failure

    def _request(self, message: tuple, timeout=_SHARD_BUDGET) -> tuple:
        """One message round trip; transport trouble becomes a ReplicaFailure."""
        if self._closed:
            raise RuntimeError("replica client is closed")
        if self._failure is not None:
            raise self._failure
        budget = self._timeout if timeout is _SHARD_BUDGET else timeout
        op = message[0]
        try:
            self.transport.send(message)
            reply = self.transport.recv(budget)
        except TransportTimeout as exc:
            # Watchdog: the worker is hung (or stalling) past the budget.
            # Stop it so the caller can retry on a healthy replica instead
            # of waiting forever.
            self.transport.kill()
            if self._telemetry is not None:
                self._telemetry.tracer.event(
                    "watchdog-kill",
                    replica=self.index,
                    pid=self.pid,
                    op=op,
                    budget=budget,
                )
            raise self._mark_dead(
                "timeout", f"did not answer {op!r} in time ({exc}) and was stopped", exc
            )
        except TransportClosed as exc:
            raise self._mark_dead("crash", f"died while serving {op!r} ({exc})", exc)
        if reply[0] == "error":
            _, summary, trace = reply
            raise RuntimeError(
                f"worker {self.index} (pid {self.pid}) failed: {summary}\n{trace}"
            )
        self.worker_stats = reply[-1]
        return reply

    def adopt(self, plan_id: int, fields, stage_specs) -> None:
        """Ship one plan payload by id."""
        self._request(("plan", plan_id, fields, stage_specs))
        self._shipped.add(plan_id)

    def reship(self, dead: "ReplicaClient") -> None:
        """Re-adopt every plan ``dead`` had shipped (the respawn path).

        The payloads come straight from the parent-side
        :class:`PlanDirectory` — as manager-independent specs, never as
        ASTs — so the replacement serves its destinations immediately
        and its ``ast_compilations`` counter stays 0.
        """
        for plan_id in sorted(dead._shipped):
            payload = self._directory.payload(plan_id)
            if payload is not None:
                self.adopt(plan_id, *payload)

    # -- backend surface (driven under a replica lease) ------------------------
    def plan(self, policy) -> int:
        """Ship ``policy``'s payload to the worker once; returns its plan id."""
        plan_id, fields, stage_specs, _key = self._directory.entry(policy)
        if plan_id not in self._shipped:
            self.adopt(plan_id, fields, stage_specs)
        return plan_id

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
        plan_id = self.plan(policy)
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
        the worker returns raw distributions and the parent reads them
        with the same :func:`~repro.core.answer.delivered_mass` as every
        other entry point.
        """
        dists = self.output_distributions(model.policy, model.ingress_packets)
        return all(
            float(delivered_mass(dist, model.delivered)) >= 1.0 - tolerance
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
        """Stop the worker and release the transport (idempotent)."""
        if self._closed:
            return
        if self._failure is None:
            try:
                self._request(("stop",), timeout=5.0)
            except RuntimeError:
                pass  # it died on the way out; the transport reaps it
        self._closed = True
        self.transport.close()


class InProcess:
    """The in-process replica source: one replica, ``backend`` itself.

    Queries reach the backend by a direct call — no codec, no copy — so
    this is the path every single-process caller runs.  A failed lease
    re-installs the same backend (the call was in-process: there is no
    worker to lose), and a second replica is refused: replicas in one
    interpreter share its GIL, so parallel serving is what the process
    source is for.  The backend stays its owner's to close.
    """

    mode = "thread"
    owns_replicas = False

    def __init__(self, backend: object):
        self.backend = backend

    def __call__(self, index: int, dead: object) -> object:
        if index:
            raise ValueError(
                "pool_mode='thread' hosts exactly one in-process replica; "
                "use pool_mode='process' for more"
            )
        return self.backend


class ProcessReplicas:
    """The process replica source: one worker process per replica.

    Each replica is a :class:`ReplicaClient` over a
    :class:`~repro.service.transport.PipeTransport` to a fresh
    :func:`worker_main` process, which owns a complete
    :class:`~repro.backends.matrix.MatrixBackend` (its own FDD manager,
    plan caches, and ``splu`` family), so *all* phases of shard execution
    — plan rebuild, matrix assembly, factorization, solve — run outside
    the parent's GIL.

    Parameters
    ----------
    planner:
        The parent-side planner backend.  It never serves shard queries;
        it compiles each policy once and produces the wire payloads and
        canonical cache keys workers and sessions share.  Must support
        spec shipping (``plan_payload``/``plan_key`` — the matrix
        backend; the native family cannot host worker replicas).
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
    telemetry:
        Carried into every client (watchdog events, trace propagation).
    """

    mode = "process"

    def __init__(
        self,
        planner: object,
        *,
        start_method: str | None = None,
        shard_timeout: float | None = None,
        telemetry: Telemetry | None = None,
    ):
        if not hasattr(planner, "plan_payload") or not hasattr(planner, "plan_key"):
            raise TypeError(
                f"backend {type(planner).__name__} cannot host worker replicas: "
                "spec shipping needs plan_payload()/plan_key() (use the matrix "
                "backend, or pool_mode='thread')"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        self.start_method = _pick_start_method(start_method)
        self.shard_timeout = shard_timeout
        #: The shared plan directory (parent-side compile-once registry).
        self.directory = PlanDirectory(planner)
        self._telemetry = telemetry
        self._context = multiprocessing.get_context(self.start_method)

    def __call__(self, index: int, dead: ReplicaClient | None = None) -> ReplicaClient:
        """Start a worker for slot ``index`` (replacing ``dead``, if given).

        New workers join with empty plan caches; the shared
        :class:`PlanDirectory` ships each compiled plan payload the first
        time the worker is asked about the policy.  A replacement for
        ``dead`` instead re-adopts the corpse's plans up front and takes
        over its cumulative phase timings as carry, so the slot's
        reported phase time never resets across restarts.
        """
        conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(child_conn, index),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        client = ReplicaClient(
            index,
            self.directory,
            PipeTransport(conn, process),
            shard_timeout=self.shard_timeout,
            telemetry=self._telemetry,
            carry_timings=None if dead is None else dead.timings(),
        )
        if dead is not None:
            try:
                client.reship(dead)
            except Exception:
                client.close()  # the replacement died too: reap, then give up
                raise
        return client


def open_pool(
    mode: str,
    backend: object,
    size: int | None = None,
    *,
    shard_timeout: float | None = None,
    telemetry: Telemetry | None = None,
) -> BackendPool:
    """A :class:`~repro.service.pool.BackendPool` over the source for ``mode``.

    ``"thread"`` serves from ``backend`` itself (:class:`InProcess`, one
    replica, which stays the caller's to close); ``"process"`` keeps
    ``backend`` as the parent-side planner and hosts ``size`` workers
    (default 1).
    """
    if mode == "thread":
        source = InProcess(backend)
    elif mode == "process":
        source = ProcessReplicas(backend, shard_timeout=shard_timeout, telemetry=telemetry)
    else:
        raise ValueError(
            f"unknown pool_mode {mode!r}; expected 'thread' or 'process'"
        )
    return BackendPool(source, 1 if size is None else size, telemetry=telemetry)


__all__ = [
    "InProcess",
    "PlanDirectory",
    "ProcessReplicas",
    "ReplicaClient",
    "open_pool",
    "worker_main",
]
