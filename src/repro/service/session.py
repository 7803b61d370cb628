"""Persistent analysis sessions: compile once, serve query streams.

Architecture: the service pipeline is **session → pool → backend**.  An
:class:`AnalysisSession` owns a :class:`~repro.service.pool.BackendPool`
of backend replicas (the in-process backend itself, or worker processes
fed manager-independent plan specs), registers one compiled
:class:`~repro.network.model.NetworkModel` per destination, and answers
streams of queries against that compiled state.

A batch is grouped by destination, in order of first appearance.  Each
group is one compiled model, so it is answered from the session cache
and, for its misses, one lease and one ``output_distributions`` call:
the multi-RHS solve McNetKAT answers every ingress of a program with.
Answers go straight back to the caller's positions, and each group adds
one :class:`~repro.service.results.ShardReport` (timings, serving
replica, worker pid) to the :class:`~repro.service.results.ResultSet`.
With one replica (thread mode, or a process pool of one) the groups run
inline on the calling thread; only when ``min(workers, pool size) > 1``
do they fan out over the executor's threads, each leasing its own
worker replica.

Concurrency model: there is **no session-wide solver lock**.  Backend
access is serialised *per replica* by the pool's exclusive leases; the
only session-scoped lock is a short state lock guarding the result
cache and the model registry (see :mod:`repro.service.pool` for the
lock hierarchy); the serving counters are the telemetry registry's.
The result cache is keyed by the *canonical stage specs* of the
queried policy, so equal policies share entries even when different
replicas compiled them.  A spec is hashed once, when its policy object is interned to a small
integer *plan token*; the cache is a ``token -> {ingress packet ->
answer row}`` table.  A row (:class:`~repro.core.answer.AnswerRow`) is
an ingress's row of the batched answer that solved it: a delivery query
is a row reduction over it.

Sessions implement the analysis engine protocol
(``output_distribution`` / ``certainly_delivers``), so every
``repro.analysis`` entry point accepts one as ``backend=``.

Crashes: a :class:`~repro.service.pool.ReplicaFailure` under a lease
(its worker died) fails the group that held the lease, and the batch
raises it; the pool takes that replica out of the rotation, so later
calls are served by the remaining replicas, and by none once
:class:`~repro.service.pool.PoolUnavailable` says every one is dead.
The streaming front end maps both to the retryable ``unavailable`` wire
error.  Nothing is retried here.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.backends.matrix import MatrixBackend, mix_outputs
from repro.core import syntax as s
from repro.core.answer import Answer, AnswerRow, delivered_mass
from repro.core.distributions import Dist
from repro.core.interpreter import Outcome
from repro.core.packet import Packet
from repro.network.model import NetworkModel
from repro.service.executor import ShardExecutor
from repro.service.pool import BackendPool, Replica
from repro.service.procpool import open_pool
from repro.service.results import Query, QueryResult, ResultSet, ShardReport
from repro.service.telemetry import LATENCY_BUCKETS, SIZE_BUCKETS, Telemetry


class AnalysisSession:
    """A persistent, concurrent analysis engine over compiled network models.

    Parameters
    ----------
    model:
        The session's default network model (also registered under its
        destination).  Optional when ``models`` or ``model_factory``
        supply the destinations instead.
    models:
        Additional pre-built models, registered by their ``dest``.
    model_factory:
        ``dest -> NetworkModel`` builder for destinations not registered
        up front; built models are compiled once and cached.
    backend:
        The base query engine, a :class:`~repro.backends.matrix.MatrixBackend`
        instance; ``None`` (the default) builds a fresh one that the
        session owns and closes.  In thread mode it is the session's one
        replica, called directly; in process mode it stays in the parent
        as the planner backend that compiles policies once and ships
        their specs to workers.
    pool_size:
        Number of independent backend replicas (default 1).  Thread mode
        hosts exactly one: asking it for more raises ``ValueError``.
    pool_mode:
        ``"thread"`` (default) serves from the backend in this process,
        with no codec between the session and the solver.
        ``"process"`` hosts each replica in its own worker process
        (:class:`~repro.service.procpool.ProcessReplicas`): plans ship
        as manager-independent specs and *every* phase — plan rebuild,
        matrix assembly, factorization, solve — runs outside the
        parent's GIL, at the price of per-query IPC and per-worker
        memory.
    workers:
        Threads of the executor (default: CPU count, capped): how many
        batches :meth:`submit_batch` runs at once and, with several
        replicas, how many destination groups of one batch run at once.
        Groups run inline whenever ``min(workers, pool size)`` is 1.
    cache:
        Keep the canonical-spec-keyed result cache (default).  Disable to
        re-solve every query (e.g. for benchmarking the raw solver path).
    telemetry:
        Observability configuration: a
        :class:`~repro.service.telemetry.Telemetry` instance, ``True``
        (tracing on), or ``None``/``False`` (the default — metrics
        counters still work, tracing fully disabled).
        With tracing on, every batch becomes one span tree — ``request →
        shard → lease → worker:query → phase:*``, one ``shard`` per
        destination group — spanning the process
        boundary in process mode (worker-side spans ship back in reply
        stats and are re-parented into the caller's trace).
    """

    def __init__(
        self,
        model: NetworkModel | None = None,
        *,
        models: Iterable[NetworkModel] | Mapping[int, NetworkModel] | None = None,
        model_factory: Callable[[int], NetworkModel] | None = None,
        backend: MatrixBackend | None = None,
        pool_size: int | None = None,
        pool_mode: str = "thread",
        workers: int | None = None,
        cache: bool = True,
        telemetry: Telemetry | bool | None = None,
    ):
        self._telemetry = Telemetry.coerce(telemetry)
        # The serving counts live here only; stats() reads them back.
        metrics = self._telemetry.metrics
        self._m_requests = metrics.counter(
            "repro_requests_total", "Query batches served by the session"
        ).labels()
        self._m_queries = metrics.counter(
            "repro_queries_total", "Individual queries answered"
        ).labels()
        self._m_shards = metrics.counter(
            "repro_shards_total", "Destination groups served"
        ).labels()
        self._m_cache_hits = metrics.counter(
            "repro_cache_hits_total", "Queries answered from the session result cache"
        ).labels()
        self._m_latency = metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end query batch latency",
            buckets=LATENCY_BUCKETS,
        ).labels()
        self._m_batch_size = metrics.histogram(
            "repro_batch_size", "Queries per served batch", buckets=SIZE_BUCKETS
        ).labels()
        self._m_phase = metrics.gauge(
            "repro_backend_phase_seconds",
            "Cumulative backend phase time summed over all replicas",
            labelnames=("phase",),
        )
        self._m_solver = metrics.gauge(
            "repro_backend_solver",
            "Numeric-kernel and compile counts summed over all replicas",
            labelnames=("counter",),
        )
        self._m_cached = metrics.gauge(
            "repro_cached_distributions", "Entries in the session result cache"
        ).labels()
        # The result cache is keyed by plan_key, which an Interpreter lacks.
        if backend is not None and not hasattr(backend, "plan_key"):
            raise TypeError(
                f"backend {type(backend).__name__} does not support batched, "
                "plan-keyed queries; pass a MatrixBackend"
            )
        # A session builds (and closes) its own backend when given none;
        # caller-supplied instances stay the caller's to close.  Worker
        # replicas are always pool-owned.
        self._owns_backend = backend is None
        self._backend = MatrixBackend() if backend is None else backend
        self._pool = open_pool(pool_mode, self._backend, pool_size, telemetry=self._telemetry)
        metrics.gauge("repro_pool_size", "Number of backend replicas").labels().set(self._pool.size)
        self._executor = ShardExecutor(workers)
        self._model_factory = model_factory
        self._cache_enabled = cache
        self._closed = False
        self._closing = False
        # The only session-scoped lock: a short state lock for the result
        # cache and the model registry.  Raw backend access is serialised
        # per replica by the pool's leases instead.  The state lock may be
        # taken while holding a replica lease, never the other way around
        # (see repro.service.pool for the lock hierarchy).
        self._state_lock = threading.RLock()
        # In-flight public calls (batches + engine-protocol calls).  close()
        # waits for this to reach zero before tearing anything down, which
        # makes teardown deterministic for batches run inline, which the
        # executor cannot drain for us.
        self._active_calls = 0
        self._idle = threading.Condition(self._state_lock)
        # dest -> model; the None key is the session's default model.
        self._models: dict[int | None, NetworkModel] = {}
        # Canonical policy key -> plan token.  The intern table is exact
        # (equal keys, equal token — never a digest, a collision would
        # serve another model's probabilities) and is the only place a
        # structural key is ever hashed: once per registered policy.
        self._tokens: dict[object, int] = {}
        # id(policy) -> (policy, plan token).  The policy is retained so
        # a recycled id cannot alias a different program.
        self._keys: dict[int, tuple[s.Policy, int]] = {}
        # plan token -> {ingress packet -> its answer row}.
        self._rows: dict[int, dict[Packet, AnswerRow]] = {}
        # plan token -> certainly_delivers verdict.
        self._verdicts: dict[int, bool] = {}

        if model is not None:
            self.add_model(model, default=True)
        if models is not None:
            values = models.values() if isinstance(models, Mapping) else models
            for entry in values:
                self.add_model(entry)
        if not self._models and model_factory is None:
            raise ValueError(
                "a session needs at least one model (model=, models=) or a "
                "model_factory"
            )

    # -- model registry --------------------------------------------------------
    def add_model(self, model: NetworkModel, default: bool = False) -> NetworkModel:
        """Register ``model`` under its destination (optionally as default).

        Only an explicit ``default=True`` (or the constructor's ``model=``
        argument) sets the default model served by ``dest=None`` queries —
        lazily factory-built models never promote themselves, so the
        default cannot depend on which destination happened to be queried
        first.
        """
        self._models[model.dest] = model
        if default:
            self._models[None] = model
        return model

    def model_for(self, dest: int | None = None) -> NetworkModel:
        """The model serving ``dest`` (built via the factory if needed)."""
        found = self._models.get(dest)
        if found is not None:
            return found
        if dest is None:
            raise KeyError(
                "no default model: construct the session with model=, or "
                "add_model(..., default=True), or query explicit destinations"
            )
        if self._model_factory is None:
            known = sorted(k for k in self._models if k is not None)
            raise KeyError(
                f"no model for destination {dest!r} (registered: {known}, "
                f"no model_factory)"
            )
        with self._state_lock:
            found = self._models.get(dest)
            if found is None:
                found = self.add_model(self._model_factory(dest))
        return found

    @property
    def destinations(self) -> list[int]:
        """The destinations with a registered (already built) model."""
        return sorted(k for k in self._models if k is not None)

    @property
    def backend(self):
        """The base backend (the thread-mode replica, else the planner)."""
        return self._backend

    @property
    def pool(self) -> BackendPool:
        """The session's backend replica pool."""
        return self._pool

    @property
    def pool_mode(self) -> str:
        """How replicas are hosted: ``"thread"`` or ``"process"``."""
        return self._pool.mode

    @property
    def pool_size(self) -> int:
        """The number of backend replicas (fixed when the session opens)."""
        return self._pool.size

    @property
    def telemetry(self) -> Telemetry:
        """The session's telemetry hub (tracer + metrics registry)."""
        return self._telemetry

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drain in-flight work, then shut down the executor and the pool.

        Teardown is deterministic in both pool modes, in three ordered
        steps: (1) the session starts *closing* — every public query
        surface refuses new work, but batches already in flight keep full
        access to the caches and the pool, and are waited for (so a
        ``query_batch`` racing ``close()`` returns its complete
        :class:`ResultSet` instead of dying mid-batch); (2) the executor
        is shut down; (3) the
        session is marked closed and the pool is torn down — which itself
        waits out any lease still held by an engine-protocol call before
        closing backends (and, in process mode, stopping
        every worker).

        A backend *instance* passed by the caller is not closed — shared
        instances may serve other users (the documented shared-backend
        pattern); only the backend the session built itself, plus every
        worker (always pool-owned), is torn down.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closing = True
            # Drain: every in-flight query_batch / engine-protocol call
            # entered before _closing flipped runs to completion.
            while self._active_calls:
                self._idle.wait()
        self._executor.close()
        self._closed = True
        self._pool.close()
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def clear_cache(self, keep_plans: bool = False) -> None:
        """Drop the session result cache and every replica's backend caches.

        With ``keep_plans`` the replicas keep their compiled plans and
        only reset solver state (loop factorizations and row/solution
        caches) — the cheap way to bound memory, or to re-measure the
        solver path, without recompiling anything.
        """
        with self._state_lock:
            self._rows.clear()
            self._verdicts.clear()
        # Replica caches are cleared under their own leases — never while
        # holding the state lock (lease > state lock in the hierarchy).
        self._pool.clear_caches(keep_plans=keep_plans)

    # -- batched query API -----------------------------------------------------
    def query_batch(
        self,
        queries: Iterable[Query | Mapping | tuple],
        *,
        trace_parent: object | None = None,
    ) -> ResultSet:
        """Answer a batch of queries: one solve per destination.

        Returns a :class:`~repro.service.results.ResultSet` in the
        original query order, with one
        :class:`~repro.service.results.ShardReport` per destination in
        order of first appearance.  ``trace_parent`` (a span, span
        context, or wire tuple) parents the batch's ``request`` span
        under an enclosing trace — the coalescer passes its window span
        here so coalesced batches keep their admission history.
        """
        with self._serving():
            batch = [Query.coerce(raw) for raw in queries]
            start = time.perf_counter()
            groups: dict[int | None, list[int]] = {}
            for position, query in enumerate(batch):
                groups.setdefault(query.dest, []).append(position)
            with self._telemetry.tracer.span(
                "request", parent=trace_parent, queries=len(batch)
            ) as span:
                results: list[QueryResult] = [None] * len(batch)  # type: ignore[list-item]
                run = partial(self._run_group, batch, results, trace_parent=span.context)
                items = list(enumerate(groups.items()))
                if min(self._executor.workers, self._pool.size) > 1:
                    reports = self._executor.map(run, items)
                else:
                    reports = [run(item) for item in items]
                result = ResultSet(results, reports, time.perf_counter() - start)
                span.set(
                    shards=len(reports),
                    cache_hits=result.cache_hits,
                    seconds=round(result.seconds, 6),
                )
            self._m_requests.inc()
            self._m_queries.inc(len(batch))
            self._m_shards.inc(len(reports))
            self._m_cache_hits.inc(result.cache_hits)
            self._m_latency.observe(result.seconds)
            self._m_batch_size.observe(len(batch))
            return result

    def submit_batch(
        self,
        queries: Iterable[Query | Mapping | tuple],
        *,
        trace_parent: object | None = None,
    ):
        """Dispatch a batch asynchronously; returns a ``Future[ResultSet]``.

        The batch runs on the executor's dispatch pool exactly like
        :meth:`query_batch`, including the closing-session refusal, which
        then surfaces as the future's exception.  This is the submission
        surface the asyncio streaming front end
        (:mod:`repro.service.server`) coalesces queries onto.
        """
        batch = list(queries)
        with self._state_lock:
            self._check_open()
        # The dispatch thread has no ambient span context, so the parent
        # rides along explicitly.
        return self._executor.submit(
            partial(self.query_batch, trace_parent=trace_parent), batch
        )

    async def query_batch_async(
        self, queries: Iterable[Query | Mapping | tuple]
    ) -> ResultSet:
        """Awaitable :meth:`query_batch` for asyncio callers.

        The solve runs on the session's dispatch pool; the awaiting
        coroutine (and its event loop) stays free to admit more queries
        while the batch is in flight.
        """
        import asyncio

        return await asyncio.wrap_future(self.submit_batch(queries))

    def query(self, kind: str, ingress, dest: int | None = None):
        """Answer one query and return its bare value.

        ``session.query("delivery", (sw, pt), dest)`` is the scalar
        convenience over :meth:`query_batch`.
        """
        q = Query.coerce({"kind": kind, "ingress": ingress, "dest": dest})
        return self.query_batch([q]).results[0].value

    def delivery_probabilities(self, dest: int | None = None) -> dict[Packet, float]:
        """Per-ingress delivery probability of one destination's model."""
        model = self.model_for(dest)
        batch = [Query("delivery", packet, dest) for packet in model.ingress_packets]
        results = self.query_batch(batch)
        return {res.query.ingress: res.value for res in results}

    def resilience_sweep(
        self,
        model_factory: Callable[[str, int | None], NetworkModel],
        schemes: Sequence[str],
        failure_bounds: Sequence[int | None],
    ) -> dict[str, dict[int | None, bool]]:
        """A Figure 11(b)-style sweep served by this session's backend.

        ``model_factory(scheme, k)`` builds each configuration; verdicts
        are cached by canonical policy key, so overlapping sweeps reuse
        earlier answers.
        """
        return {
            scheme: {
                bound: self.certainly_delivers(model_factory(scheme, bound))
                for bound in failure_bounds
            }
            for scheme in schemes
        }

    # -- engine protocol (usable as backend= in repro.analysis) -----------------
    def output_distribution(
        self, policy: s.Policy | NetworkModel, inputs: Packet | Dist | Iterable[Packet]
    ) -> Dist[Outcome]:
        """Output distribution on a packet, a distribution, or an ingress set.

        Same contract as the backends' ``output_distribution``, but
        answered through the session cache.
        """
        with self._serving():
            if isinstance(policy, NetworkModel):
                policy = policy.policy
            return mix_outputs(inputs, partial(self._distributions, policy))

    def output_distributions(
        self, policy: s.Policy | NetworkModel, inputs: Iterable[Packet]
    ) -> dict[Packet, Dist[Outcome]]:
        """Per-ingress output distributions, through the session cache."""
        with self._serving():
            if isinstance(policy, NetworkModel):
                policy = policy.policy
            return self._distributions(policy, list(inputs))

    def certainly_delivers(self, model: NetworkModel) -> bool:
        """Whether every ingress of ``model`` delivers with probability one.

        Delegates to a leased replica, whose backend answers with the
        model's structural analysis (exact); verdicts are cached by
        canonical policy key.
        """
        with self._serving():
            # Cached-verdict fast path: no lease needed when the policy's
            # plan token is already known and the verdict is cached.
            token = self._known_token(model.policy)
            if token is not None:
                cached = self._verdicts.get(token)
                if cached is not None:
                    return cached

            def check(replica: Replica) -> bool:
                token = self._policy_key(model.policy, replica.backend)
                cached = self._verdicts.get(token)
                if cached is None:
                    verdict = bool(replica.backend.certainly_delivers(model))
                    with self._state_lock:
                        cached = self._verdicts.setdefault(token, verdict)
                return cached

            return self._with_lease(check)

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Serving counters, pool shape, and accumulated phase timings.

        ``backend_timings`` sums each phase over all replicas (total CPU
        work, which can exceed wall-clock when replicas run in parallel);
        ``backend_solver`` sums the numeric-kernel counters
        (``factorizations`` / ``schur_updates`` / ``assembly_rows``) the
        same way; ``pool`` reports the pool's shape, dead replicas,
        worker pids and per-replica lease counts.  The serving and lease
        counts are read from the session's metrics registry.
        """
        timings, solver = self._backend_totals()
        return {
            "queries": int(self._m_queries.get()),
            "batches": int(self._m_requests.get()),
            "shards": int(self._m_shards.get()),
            "cached_distributions": self._cached_count(),
            "destinations": self.destinations,
            "backend": type(self._backend).__name__,
            "backend_timings": timings,
            "backend_solver": solver,
            "pool": self._pool.stats(),
        }

    def metrics_text(self) -> str:
        """The session's metrics in Prometheus text exposition format.

        Counters and histograms update at serve time; the gauges of
        backend phase seconds and solver counts (summed over replicas)
        and of the result cache size are refreshed from live state on
        every call, so the output is always scrape-fresh.  This is what
        the streaming server's ``metrics`` op returns.
        """
        timings, solver = self._backend_totals()
        for name, value in timings.items():
            self._m_phase.labels(phase=name).set(round(value, 6))
        for name, value in solver.items():
            self._m_solver.labels(counter=name).set(value)
        self._m_cached.set(self._cached_count())
        return self._telemetry.metrics.to_prometheus()

    def _backend_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Phase seconds and solver counts, each summed over the replicas."""
        timings: dict[str, float] = {}
        solver: dict[str, int] = {}
        for replica in self._pool.replicas:
            for name, value in replica.backend.timings().items():
                timings[name] = timings.get(name, 0.0) + value
            for name, value in replica.backend.solver_stats().items():
                solver[name] = solver.get(name, 0) + int(value)
        return timings, solver

    def _cached_count(self) -> int:
        with self._state_lock:
            return sum(len(table) for table in self._rows.values())

    def warm(self, dest: int | None = None, solve: bool = True) -> "AnalysisSession":
        """Pre-plan one destination's model on every replica and pre-solve it.

        Warmup takes the ordinary per-replica lease path — it never
        touches a backend outside a lease — so it is safe against
        concurrent :meth:`query_batch` traffic on the same destination.
        Every replica gets the compiled plan (cheap after the first: a
        worker rebuilds it from shipped specs), then the full ingress
        set is solved once on the lowest-index free replica, which also
        populates the session result cache.  After warming, any
        batch over that destination's ingress packets is answered from
        the cache.  With ``solve=False`` only the plans are compiled
        (plan-only warmup for latency-sensitive services: first queries
        then pay the solve but never the compile).
        """
        with self._serving():
            model = self.model_for(dest)
            policy = model.policy

            def plan(replica: Replica) -> None:
                replica.backend.plan(policy)

            # A replica dying under the warmup call is marked dead through
            # the lease's own exception path and skipped.
            self._pool.for_each(plan)
            if solve:
                self._answer_rows(policy, model.ingress_packets)
            return self

    # -- internals -------------------------------------------------------------
    def _check_open(self) -> None:
        """Refuse new work once teardown has begun (closing or closed)."""
        if self._closing or self._closed:
            raise RuntimeError("session is closed")

    @contextmanager
    def _serving(self) -> Iterator[None]:
        """Count one in-flight public call for close()'s deterministic drain.

        Admission and the counter share the state lock, so a call either
        sees the session open and is counted (close() then waits for it)
        or is refused — there is no window in which work slips in after
        the drain started.
        """
        with self._state_lock:
            self._check_open()
            self._active_calls += 1
        try:
            yield
        finally:
            with self._state_lock:
                self._active_calls -= 1
                if self._active_calls == 0:
                    self._idle.notify_all()

    def _run_group(
        self,
        batch: Sequence[Query],
        results: list[QueryResult],
        item: tuple[int, tuple[int | None, list[int]]],
        trace_parent: object | None = None,
    ) -> ShardReport:
        """Answer one destination's queries, ``batch`` at ``positions``.

        Each answer is written to ``results`` at its query's position.
        """
        index, (dest, positions) = item
        started = time.perf_counter()
        with self._telemetry.tracer.span(
            "shard", parent=trace_parent, index=index, dest=dest, queries=len(positions)
        ) as span:
            model = self.model_for(dest)
            queries = [batch[position] for position in positions]
            rows, hits, served_by = self._answer_rows(
                model.policy, [query.ingress for query in queries]
            )
            cache_hits = 0
            for position, query in zip(positions, queries):
                cached = query.ingress in hits
                cache_hits += cached
                value = self._evaluate(query, model, rows[query.ingress])
                results[position] = QueryResult(query, value, index, cached)
            span.set(cache_hits=cache_hits, replica=served_by)
        finished = time.perf_counter()
        return ShardReport(
            index=index,
            dest=dest,
            queries=len(queries),
            seconds=finished - started,
            cache_hits=cache_hits,
            replica=-1 if served_by is None else served_by,
            pool_mode=self._pool.mode,
            worker=None if served_by is None else self._pool.worker_id(served_by),
            started=started,
            finished=finished,
        )

    def _evaluate(self, query: Query, model: NetworkModel, row: AnswerRow):
        if query.kind == "delivery":
            return float(delivered_mass(row, model.delivered))
        if query.kind == "distribution":
            return row.dist()
        if query.kind == "hops":
            hops_field = model.hops_field
            if hops_field is None:
                raise ValueError(
                    "hop-count queries need a model built with count_hops=True"
                )
            # Same semantics as analysis.latency.expected_hop_count: only
            # delivered outcomes carrying a hop value contribute mass.
            total = 0.0
            mass = 0.0
            for outcome, prob in row.items_where(model.delivered):
                hops = outcome.get(hops_field)
                if hops is None:
                    continue
                total += float(prob) * float(hops)
                mass += float(prob)
            if mass == 0.0:
                raise ZeroDivisionError(
                    "no traffic is delivered; expected hop count undefined"
                )
            return total / mass
        raise ValueError(f"unknown query kind {query.kind!r}")

    def _distributions(
        self, policy: s.Policy, packets: Sequence[Packet]
    ) -> dict[Packet, Dist[Outcome]]:
        """Per-ingress distributions of ``policy``, built from cached answer rows."""
        rows = self._answer_rows(policy, packets)[0]
        return {packet: row.dist() for packet, row in rows.items()}

    def _answer_rows(
        self, policy: s.Policy, packets: Sequence[Packet]
    ) -> tuple[dict[Packet, AnswerRow], set[Packet], int | None]:
        """Per-ingress answer rows of ``policy``, via the session cache.

        Returns ``(rows, hits, replica)`` where ``hits`` are the packets
        answered from the cache and ``replica`` is the index of the
        leased replica that solved the misses (``None`` when every
        packet hit — fully cached calls never lease, so cached traffic
        runs with no solver contention at all).
        """
        if self._closed:
            # Every query surface funnels through here (query_batch, the
            # engine protocol, warm), so a closed session cannot silently
            # restart backend resources close() released.  Deliberately
            # `_closed`, not `_closing`: while close() drains, in-flight
            # batches must keep solving — only the *entry points* refuse
            # new work during the drain.
            raise RuntimeError("session is closed")
        if self._cache_enabled:
            table = self._rows.get(self._known_token(policy))
            if table is not None:
                out: dict[Packet, AnswerRow] = {}
                for packet in packets:
                    found = table.get(packet)
                    if found is None:
                        break
                    out[packet] = found
                else:
                    return out, set(out), None

        def solve(replica: Replica) -> tuple[dict[Packet, AnswerRow], set[Packet], int]:
            rows, solved_hits = self._solve_on(replica, policy, packets)
            return rows, solved_hits, replica.index

        return self._with_lease(solve)

    def _with_lease(self, body: Callable[[Replica], object]):
        """Run ``body`` under a pool lease, inside a ``lease`` span.

        The span lives *inside* the pool lease, so a body failure closes
        the span (with its error attr) before the lease's exception path
        marks the replica dead.
        """
        with self._pool.lease() as replica:
            with self._telemetry.tracer.span("lease", replica=replica.index):
                return body(replica)

    def _solve_on(
        self, replica: Replica, policy: s.Policy, packets: Sequence[Packet]
    ) -> tuple[dict[Packet, AnswerRow], set[Packet]]:
        """Compute (cache-assisted) answer rows on an already-leased replica.

        At most two cache probes per packet: one read, one publish.  An
        engine answering with a plain ``{packet: Dist}`` mapping is held
        as an :class:`~repro.core.answer.Answer` of those distributions.
        """
        backend = replica.backend
        if not self._cache_enabled:
            return self._rows_of(backend, policy, packets), set()
        token = self._policy_key(policy, backend)
        # The read happens under the lease, immediately before the solve:
        # entries another batch (e.g. one that ran on a different replica)
        # published while this one waited for its lease are hits here.
        table = self._rows.get(token, {})
        out: dict[Packet, AnswerRow] = {}
        hits: set[Packet] = set()
        for packet in packets:
            found = table.get(packet)
            if found is None:
                out[packet] = None  # type: ignore[assignment]
            else:
                out[packet] = found
                hits.add(packet)
        misses = [packet for packet, found in out.items() if found is None]
        if not misses:
            return out, hits
        computed = self._rows_of(backend, policy, misses)
        with self._state_lock:
            # Publish into the *live* table: a concurrent clear_cache() may
            # have dropped the one read above.  setdefault both publishes
            # and reads back, so every miss resolves to the entry the cache
            # actually holds (ours, or a racing batch's equal answer).
            table = self._rows.setdefault(token, {})
            for packet in misses:
                out[packet] = table.setdefault(packet, computed[packet])
        return out, hits

    @staticmethod
    def _rows_of(backend, policy: s.Policy, packets: Sequence[Packet]) -> dict[Packet, AnswerRow]:
        """One backend call's answer rows for ``packets``."""
        answer = Answer.from_distributions(backend.output_distributions(policy, packets))
        rows = {packet: answer.row(packet) for packet in packets}
        # A packet the backend was asked about and did not answer is a
        # contract violation: fail fast rather than hand back a None.
        broken = [packet for packet, row in rows.items() if row is None]
        if broken:
            raise RuntimeError(
                f"backend {type(backend).__name__} returned no distribution "
                f"for {len(broken)} requested ingress packet(s), e.g. {broken[0]!r}"
            )
        return rows

    def _known_token(self, policy: s.Policy) -> int | None:
        """The plan token of an already-registered policy object, else ``None``."""
        entry = self._keys.get(id(policy))
        if entry is not None and entry[0] is policy:
            return entry[1]
        return None

    def _policy_key(self, policy: s.Policy, backend: object) -> int:
        """The plan token of ``policy``: its interned canonical stage specs.

        The canonical key is
        :meth:`~repro.backends.matrix.MatrixBackend.plan_key` — the
        manager-*independent* serialization of the policy's compiled
        stage FDDs.  Structural specs, not node ids: the same policy
        compiled by two different replicas (or two semantically equal
        policies compiled by one) yields the same key, which is what lets
        all replicas share one session result cache.

        The key is hashed here and nowhere else — once per policy object,
        when it is interned to the small integer token every cache table
        is keyed by.  Equal keys intern to the same token.

        The caller must hold the lease of ``backend``'s replica: key
        computation may compile the policy's plan.
        """
        token = self._known_token(policy)
        if token is not None:
            return token
        key = backend.plan_key(policy)
        with self._state_lock:
            token = self._known_token(policy)
            if token is None:
                token = self._tokens.setdefault(key, len(self._tokens))
                self._keys[id(policy)] = (policy, token)
            return token


__all__ = ["AnalysisSession"]
