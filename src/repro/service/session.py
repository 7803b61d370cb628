"""Persistent analysis sessions: compile once, serve query streams.

Architecture: the service pipeline is **session → shards → pool →
backend**.  An :class:`AnalysisSession` is the long-lived top layer a
production verifier would keep per tenant or per network: it owns a
:class:`~repro.service.pool.BackendPool` of one or more independent
backend replicas (each with its own FDD manager, compiled query plans,
and family of ``splu`` factorizations — the in-process backend itself,
or worker processes fed manager-independent plan specs), registers one
compiled
:class:`~repro.network.model.NetworkModel` per destination, and answers
arbitrary streams of queries against that compiled state.

A query batch flows through the session as follows:

1. raw queries are coerced to :class:`~repro.service.results.Query`
   values ((ingress, destination) pairs plus a kind);
2. the session's pluggable :class:`~repro.service.shards.ShardPlanner`
   partitions the batch into shards (by destination, by ingress block,
   or round-robin) — validated to be an *exact* partition — and tags
   each shard with an affinity hint;
3. the persistent :class:`~repro.service.executor.ShardExecutor` runs
   the shards concurrently; each shard consults the session-wide result
   cache first and, on a miss, **leases one backend replica** from the
   pool (affinity-routed: shards of one destination stick to the replica
   already holding that destination's factorizations) and solves the
   missing slice against it — shards on different replicas share no
   solver state and therefore run genuinely in parallel (with
   ``pool_mode="process"`` each replica lives in its own worker process
   fed by spec shipping, so even the GIL-bound phases overlap);
4. per-shard answers are merged back into one
   :class:`~repro.service.results.ResultSet` in the caller's original
   query order, with per-shard timings (including the serving replica
   and wall-clock start/finish stamps) attached.

Concurrency model: there is **no session-wide solver lock**.  Raw
backend access is serialised *per replica* by the pool's exclusive
leases; the only session-scoped lock is a short state lock guarding the
result cache, the model registry, and the serving counters (see
:mod:`repro.service.pool` for the full lock hierarchy).  The result
cache is keyed by the *canonical stage specs* of the queried policy —
manager-independent serializations of the compiled FDD stages — so
semantically equal policies share entries even when they were compiled
by different replicas, and a hit computed on replica A is served to a
shard headed for replica B without touching either solver.  Those specs
are large (thousands of leaves, many of them ``Fraction``s) and tuples
do not cache their hash, so the session hashes each one exactly once:
it is interned to a small integer *plan token* when its policy object
is first seen, and the cache is a two-level ``token -> {ingress packet
-> answer row}`` table — one dict probe per query on a hit.  A row
(:class:`~repro.core.answer.AnswerRow`) is an ingress's row of the
batched answer that solved it: a delivery query is a row reduction over
it, and a distribution is built from it only for a query that asks.

Sessions implement the analysis engine protocol
(``output_distribution`` / ``certainly_delivers``), so every
``repro.analysis`` entry point accepts one via its ``session=``
parameter — or directly as ``backend=`` — and transparently gains the
session's caches.

Fault tolerance: queries are **pure** — a shard that died with its
replica can be re-run verbatim on a healthy one — so every leased solve
is wrapped in a bounded retry loop (``max_attempts``, default 2).  A
:class:`~repro.service.pool.ReplicaFailure` raised under a lease
quarantines and respawns the replica (see :mod:`repro.service.pool`)
while this session immediately re-leases and re-solves; callers only
ever see an error once retries are exhausted, and then the *typed*
:class:`~repro.service.pool.PoolUnavailable` rather than a replica
corpse's stack trace.  The streaming front end maps that type to the
retryable ``unavailable`` wire error.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.backends import BACKENDS, resolve_backend
from repro.backends.matrix import mix_outputs
from repro.core import syntax as s
from repro.core.answer import Answer, AnswerRow, delivered_mass
from repro.core.distributions import Dist
from repro.core.interpreter import Outcome
from repro.core.packet import Packet
from repro.network.model import NetworkModel
from repro.service.executor import ShardExecutor
from repro.service.pool import (
    BackendPool,
    PoolUnavailable,
    Replica,
    ReplicaFailure,
)
from repro.service.procpool import open_pool
from repro.service.results import (
    Query,
    QueryResult,
    ResultSet,
    ShardReport,
    merge_shard_results,
)
from repro.service.shards import Shard, ShardPlanner, get_planner, validate_partition
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
        The base query engine: a registry name (default ``"matrix"``) or
        a backend instance.  In thread mode it is the session's one
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
        memory.  Requires a spec-shipping backend (matrix).
    planner:
        Default shard planner: a name (``"destination"``, ``"ingress"``,
        ``"round-robin"``, optionally ``"name:arg"``) or a
        :class:`~repro.service.shards.ShardPlanner` instance.
    workers:
        Concurrency of the shard executor (default: CPU count, capped).
        ``1`` executes shards sequentially inline.  For true parallel
        serving use ``workers >= pool_size`` so every replica can be
        driven simultaneously.
    cache:
        Keep the canonical-spec-keyed result cache (default).  Disable to
        re-solve every query (e.g. for benchmarking the raw solver path).
    shard_timeout:
        Per-shard wall-clock watchdog in seconds (process mode): a
        worker that does not answer a shard within the budget is killed,
        respawned, and the shard retried on a healthy replica.  ``None`` (default) disables the
        watchdog; the in-process replica is the session process itself
        and cannot be killed independently, so the value is ignored
        there.
    max_attempts:
        How many replicas a shard may be attempted on before the query
        fails with :class:`~repro.service.pool.PoolUnavailable`
        (default 2: the original attempt plus one retry).  Queries are
        pure, so retrying on a healthy replica is always sound.
    telemetry:
        Observability configuration: a
        :class:`~repro.service.telemetry.Telemetry` instance, ``True``
        (tracing on at full sampling), or ``None``/``False`` (the
        default — metrics counters still work, tracing fully disabled).
        With tracing on, every batch becomes one span tree — ``request →
        shard → lease → worker:query → phase:*`` — spanning the process
        boundary in process mode (worker-side spans ship back in reply
        stats and are re-parented into the caller's trace).
    """

    def __init__(
        self,
        model: NetworkModel | None = None,
        *,
        models: Iterable[NetworkModel] | Mapping[int, NetworkModel] | None = None,
        model_factory: Callable[[int], NetworkModel] | None = None,
        backend: object | str | None = "matrix",
        pool_size: int | None = None,
        pool_mode: str = "thread",
        planner: ShardPlanner | str | None = None,
        workers: int | None = None,
        cache: bool = True,
        shard_timeout: float | None = None,
        max_attempts: int = 2,
        telemetry: Telemetry | bool | None = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._telemetry = Telemetry.coerce(telemetry)
        metrics = self._telemetry.metrics
        self._m_requests = metrics.counter(
            "repro_requests_total", "Query batches served by the session"
        )
        self._m_queries = metrics.counter(
            "repro_queries_total", "Individual queries answered"
        )
        self._m_cache_hits = metrics.counter(
            "repro_cache_hits_total", "Queries answered from the session result cache"
        )
        self._m_retries = metrics.counter(
            "repro_shard_retries_total",
            "Shard attempts transparently retried after a replica failure",
        )
        self._m_latency = metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end query batch latency",
            buckets=LATENCY_BUCKETS,
        )
        self._m_batch_size = metrics.histogram(
            "repro_batch_size", "Queries per served batch", buckets=SIZE_BUCKETS
        )
        self._m_phase = metrics.gauge(
            "repro_backend_phase_seconds",
            "Cumulative backend phase time summed over all replicas",
            labelnames=("phase",),
        )
        self._m_cached = metrics.gauge(
            "repro_cached_distributions", "Entries in the session result cache"
        )
        self._m_pool = metrics.gauge(
            "repro_pool_size", "Current number of backend replicas"
        )
        engine = resolve_backend(backend)
        if engine is None:
            raise ValueError("a session needs a backend (name or instance)")
        if not hasattr(engine, "output_distributions"):
            batched = sorted(
                name for name, cls in BACKENDS.items()
                if hasattr(cls, "output_distributions")
            )
            raise TypeError(
                f"backend {type(engine).__name__} does not support batched "
                f"distribution queries; use {' or '.join(repr(n) for n in batched)}"
            )
        self._backend = engine
        # Registry names instantiate a fresh backend the session owns (and
        # closes); caller-supplied instances stay the caller's to close.
        # Worker replicas are always pool-owned.
        self._owns_backend = isinstance(backend, str)
        self._pool = open_pool(
            pool_mode,
            engine,
            pool_size,
            shard_timeout=shard_timeout,
            telemetry=self._telemetry,
        )
        self._planner = get_planner(planner)
        self._executor = ShardExecutor(workers)
        self._model_factory = model_factory
        self._cache_enabled = cache
        self._closed = False
        self._closing = False
        # The only session-scoped lock: a short state lock for the result
        # cache, the model registry, and the counters.  Raw backend access
        # is serialised per replica by the pool's leases instead — shards
        # leasing different replicas run genuinely in parallel.  The state
        # lock may be taken while holding a replica lease, never the other
        # way around (see repro.service.pool for the lock hierarchy).
        self._state_lock = threading.RLock()
        # In-flight public calls (batches + engine-protocol calls).  close()
        # waits for this to reach zero before tearing anything down, which
        # makes teardown deterministic even for inline (workers=1) execution
        # the executor cannot drain for us.
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
        self._max_attempts = max_attempts
        self._queries_served = 0
        self._batches_served = 0
        self._shards_run = 0
        self._shard_retries = 0

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
        (or built by a concurrent shard) first.
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
        """The current number of backend replicas (autoscaling changes it)."""
        return self._pool.size

    def resize_pool(self, size: int) -> int:
        """Grow or shrink the replica pool to ``size``; returns the new size.

        Delegates to :meth:`~repro.service.pool.BackendPool.resize`:
        growth is immediate, shrinking waits for the retired replicas'
        in-flight leases to finish.  This is the knob the streaming
        server's queue-depth autoscaler turns; it counts as an in-flight
        call for :meth:`close`'s drain, so teardown and resizing cannot
        interleave.  Note the shard executor's ``workers`` bound is fixed
        at construction: to let an autoscaler drive ``N`` replicas
        concurrently, construct the session with ``workers >= N``.
        """
        with self._serving():
            return self._pool.resize(size)

    @property
    def exact(self) -> bool:
        """Whether the underlying backend runs in exact mode."""
        return bool(getattr(self._backend, "exact", False))

    @property
    def telemetry(self) -> Telemetry:
        """The session's telemetry hub (tracer + metrics registry)."""
        return self._telemetry

    @property
    def retried_shards(self) -> int:
        """How many shard attempts were transparently retried after a
        replica failure (each one a crash the caller never saw)."""
        return self._shard_retries

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drain in-flight work, then shut down the executor and the pool.

        Teardown is deterministic in both pool modes, in three ordered
        steps: (1) the session starts *closing* — every public query
        surface refuses new work, but shards already in flight keep full
        access to the caches and the pool; (2) the executor is drained
        (``shutdown(wait=True)`` runs every submitted shard to
        completion, so a ``query_batch`` racing ``close()`` returns its
        complete :class:`ResultSet` instead of dying mid-batch); (3) the
        session is marked closed and the pool is torn down — which itself
        waits out any lease still held by an engine-protocol call before
        closing backends (and, in process mode, stopping
        every worker).

        A backend *instance* passed by the caller is not closed — shared
        instances may serve other users (the documented shared-backend
        pattern); only a backend instantiated from a registry name, plus
        every worker (always pool-owned), is torn down.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closing = True
            # Drain: every in-flight query_batch / engine-protocol call
            # entered before _closing flipped runs to completion (inline
            # execution included — the executor cannot drain that for us).
            while self._active_calls:
                self._idle.wait()
        self._executor.close()
        self._closed = True
        self._pool.close()
        closer = getattr(self._backend, "close", None)
        if self._owns_backend and closer is not None:
            closer()

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
        planner: ShardPlanner | str | None = None,
        *,
        trace_parent: object | None = None,
    ) -> ResultSet:
        """Answer a batch of queries, sharded and executed concurrently.

        Returns a :class:`~repro.service.results.ResultSet` in the
        original query order with per-shard timing reports attached.
        ``trace_parent`` (a span, span context, or wire tuple) parents
        the batch's ``request`` span under an enclosing trace — the
        coalescer passes its window span here so coalesced batches keep
        their admission history.
        """
        with self._serving():
            batch = [Query.coerce(raw) for raw in queries]
            start = time.perf_counter()
            chosen = get_planner(planner) if planner is not None else self._planner
            tracer = self._telemetry.tracer
            with tracer.span(
                "request", parent=trace_parent, queries=len(batch)
            ) as span:
                shards = chosen.plan(batch)
                validate_partition(batch, shards)
                context = span.context
                runner = (
                    self._run_shard
                    if context is None
                    else partial(self._run_shard, trace_parent=context)
                )
                outputs = self._executor.map(runner, shards)
                result = merge_shard_results(
                    batch, outputs, time.perf_counter() - start
                )
                span.set(
                    shards=len(shards),
                    cache_hits=result.cache_hits,
                    seconds=round(result.seconds, 6),
                )
            with self._state_lock:
                self._queries_served += len(batch)
                self._batches_served += 1
                self._shards_run += len(shards)
            self._m_requests.inc()
            self._m_queries.inc(len(batch))
            self._m_cache_hits.inc(result.cache_hits)
            self._m_latency.observe(result.seconds)
            self._m_batch_size.observe(len(batch))
            return result

    def submit_batch(
        self,
        queries: Iterable[Query | Mapping | tuple],
        planner: ShardPlanner | str | None = None,
        *,
        trace_parent: object | None = None,
    ):
        """Dispatch a batch asynchronously; returns a ``Future[ResultSet]``.

        The batch is handed to the executor's dispatch pool (distinct
        from the shard workers — see
        :meth:`~repro.service.executor.ShardExecutor.submit` for why)
        and runs exactly like :meth:`query_batch`, including the
        closing-session refusal, which then surfaces as the future's
        exception.  This is the submission surface the asyncio streaming
        front end (:mod:`repro.service.server`) coalesces queries onto.
        """
        batch = list(queries)
        with self._state_lock:
            self._check_open()
        if trace_parent is None:
            return self._executor.submit(self.query_batch, batch, planner)
        # The dispatch thread has no ambient span context, so the parent
        # rides along explicitly (submit passes positionals only).
        bound = partial(self.query_batch, trace_parent=trace_parent)
        return self._executor.submit(bound, batch, planner)

    async def query_batch_async(
        self,
        queries: Iterable[Query | Mapping | tuple],
        planner: ShardPlanner | str | None = None,
    ) -> ResultSet:
        """Awaitable :meth:`query_batch` for asyncio callers.

        The solve runs on the session's dispatch pool; the awaiting
        coroutine (and its event loop) stays free to admit more queries
        while the batch is in flight.
        """
        import asyncio

        return await asyncio.wrap_future(self.submit_batch(queries, planner))

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

    # -- engine protocol (usable as backend=/session= in repro.analysis) --------
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

        Delegates to a leased replica (structural analysis for the native
        family, batched numerical check for the matrix backend); verdicts
        are cached by canonical policy key.
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

            verdict, _attempts, _failed = self._with_lease(None, check)
            return verdict

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Serving counters, pool shape, and accumulated phase timings.

        ``backend_timings`` sums each phase over all replicas (total CPU
        work, which can exceed wall-clock when replicas run in parallel);
        ``backend_solver`` sums the numeric-kernel counters
        (``factorizations`` / ``schur_updates`` / ``assembly_rows``) the
        same way; ``pool`` reports per-replica lease counts and the
        affinity map.
        """
        timings: dict[str, float] = {}
        solver_totals: dict[str, int] = {}
        for replica in self._pool.replicas:
            timer = getattr(replica.backend, "timings", None)
            if timer is not None:
                for name, value in timer().items():
                    timings[name] = timings.get(name, 0.0) + value
            solver = getattr(replica.backend, "solver_stats", None)
            if solver is not None:
                for name, value in solver().items():
                    solver_totals[name] = solver_totals.get(name, 0) + int(value)
        with self._state_lock:
            cached = sum(len(table) for table in self._rows.values())
        return {
            "queries": self._queries_served,
            "batches": self._batches_served,
            "shards": self._shards_run,
            "retried_shards": self._shard_retries,
            "cached_distributions": cached,
            "destinations": self.destinations,
            "backend": type(self._backend).__name__,
            "backend_timings": timings,
            "backend_solver": solver_totals,
            "pool": self._pool.stats(),
            "telemetry": self._telemetry.summary(),
        }

    def metrics_text(self) -> str:
        """The session's metrics in Prometheus text exposition format.

        Counters and histograms update at serve time; the gauges sampled
        here (per-phase backend seconds summed over replicas, result
        cache size, pool size) are refreshed from live state on every
        call, so the output is always scrape-fresh.  This is what the
        streaming server's ``metrics`` op returns.
        """
        snapshot = self.stats()
        for name, value in snapshot["backend_timings"].items():
            self._m_phase.labels(phase=name).set(round(value, 6))
        self._m_cached.set(snapshot["cached_distributions"])
        self._m_pool.set(self._pool.size)
        return self._telemetry.metrics.to_prometheus()

    def warm(self, dest: int | None = None, solve: bool = True) -> "AnalysisSession":
        """Pre-plan one destination's model on every replica and pre-solve it.

        Warmup takes the ordinary per-replica lease path — it never
        touches a backend outside a lease — so it is safe against
        concurrent :meth:`query_batch` traffic on the same destination.
        Every replica gets the compiled plan (cheap after the first: a
        worker rebuilds it from shipped specs), then the full ingress
        set is solved once on the destination's affinity replica, which
        also populates the session result cache.  After warming, any
        batch over that destination's ingress packets is answered from
        the cache.  With ``solve=False`` only the plans are compiled
        (plan-only warmup for latency-sensitive services: first queries
        then pay the solve but never the compile).
        """
        with self._serving():
            model = self.model_for(dest)
            policy = model.policy

            def plan(replica: Replica) -> None:
                plan_fn = getattr(replica.backend, "plan", None)
                if plan_fn is not None:
                    plan_fn(policy)

            # A replica dying under the warmup call quarantines through
            # the lease's own exception path and is skipped — its respawn
            # re-ships adopted plans anyway.
            self._pool.for_each(plan)
            if solve:
                self._answer_rows(policy, model.ingress_packets, affinity=("dest", dest))
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

    def _run_shard(
        self, shard: Shard, trace_parent: object | None = None
    ) -> tuple[ShardReport, list[QueryResult]]:
        started = time.perf_counter()
        results: list[QueryResult] = []
        hits_total = 0
        replicas_used: list[int] = []
        attempts_total = 0
        failed: list[int] = []
        tracer = self._telemetry.tracer
        with tracer.span(
            "shard",
            parent=trace_parent,
            index=shard.index,
            label=shard.label,
            queries=len(shard.queries),
        ) as span:
            for dest, group in shard.dest_groups().items():
                model = self.model_for(dest)
                affinity = (
                    shard.affinity if shard.affinity is not None else ("dest", dest)
                )
                rows, hits, served_by, attempts, group_failed = self._answer_rows(
                    model.policy, [query.ingress for query in group], affinity=affinity
                )
                attempts_total += attempts
                failed.extend(group_failed)
                if served_by is not None and served_by not in replicas_used:
                    replicas_used.append(served_by)
                for query in group:
                    cached = query.ingress in hits
                    hits_total += 1 if cached else 0
                    value = self._evaluate(query, model, rows[query.ingress])
                    results.append(QueryResult(query, value, shard.index, cached))
            span.set(
                cache_hits=hits_total,
                replicas=tuple(replicas_used),
                attempts=attempts_total,
            )
        finished = time.perf_counter()
        report = ShardReport(
            index=shard.index,
            label=shard.label,
            queries=len(shard.queries),
            seconds=finished - started,
            cache_hits=hits_total,
            # A mixed-destination shard may lease several replicas (one per
            # destination group); ``replica`` is only meaningful when the
            # whole shard was served by exactly one.
            replica=replicas_used[0] if len(replicas_used) == 1 else -1,
            replicas=tuple(replicas_used),
            # Provenance for benchmark artifacts: which pool mode served
            # the shard and in which OS process(es) the solves actually
            # ran — in process mode distinct worker pids are direct
            # evidence of cross-process overlap.
            pool_mode=self._pool.mode,
            workers=tuple(self._pool.worker_id(index) for index in replicas_used),
            started=started,
            finished=finished,
            attempts=attempts_total,
            failed_replicas=tuple(failed),
        )
        return report, results

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
        self,
        policy: s.Policy,
        packets: Sequence[Packet],
        affinity: object | None = None,
    ) -> tuple[dict[Packet, AnswerRow], set[Packet], int | None, int, tuple]:
        """Per-ingress answer rows of ``policy``, via the session cache.

        Returns ``(rows, hits, replica, attempts, failed)`` where
        ``hits`` are the packets answered from the cache, ``replica`` is
        the index of the leased replica that solved the misses (``None``
        when every packet hit — fully cached calls never lease, so
        cached traffic runs with no solver contention at all),
        ``attempts`` counts the lease attempts taken (0 when fully
        cached), and ``failed`` lists the replica indices retried away
        from, in failure order.
        """
        if self._closed:
            # Every query surface funnels through here (query_batch via
            # _run_shard, the engine protocol, warm), so a closed session
            # cannot silently restart backend resources close() released.
            # Deliberately `_closed`, not `_closing`: while close() drains
            # the executor, in-flight shards must keep solving — only the
            # *entry points* refuse new work during the drain.
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
                    return out, set(out), None, 0, ()

        def solve(replica: Replica) -> tuple[dict[Packet, AnswerRow], set[Packet], int]:
            rows, solved_hits = self._solve_on(replica, policy, packets)
            return rows, solved_hits, replica.index

        result, attempts, failed = self._with_lease(affinity, solve)
        rows, solved_hits, served_by = result
        return rows, solved_hits, served_by, attempts, failed

    def _with_lease(self, affinity: object | None, body: Callable[[Replica], object]):
        """Run ``body`` under a pool lease, retrying replica failures.

        Queries are pure, so a shard whose replica crashed (or hung past
        the watchdog) mid-solve re-runs verbatim on a healthy replica —
        the crashed attempt published nothing partial (cache publication
        happens after a completed solve).  The failed replica is already
        quarantined and respawning by the time the failure reaches this
        loop (the lease's exception path does that), so the re-lease
        routes around it.  After ``max_attempts`` distinct failures the
        typed :class:`~repro.service.pool.PoolUnavailable` surfaces,
        chained to the last replica failure.

        Returns ``(body's result, attempts taken, failed replica
        indices)`` so callers can attach per-shard retry provenance to
        their reports.
        """
        attempt = 0
        failed: list[int] = []
        tracer = self._telemetry.tracer
        while True:
            try:
                with self._pool.lease(affinity) as replica:
                    # The lease span lives *inside* the pool lease so a
                    # body failure closes the span (with its error attr)
                    # before the lease's exception path quarantines the
                    # replica — quarantine events land on the outer span.
                    with tracer.span(
                        "lease", replica=replica.index, attempt=attempt + 1
                    ):
                        return body(replica), attempt + 1, tuple(failed)
            except ReplicaFailure as failure:
                attempt += 1
                if failure.replica is not None:
                    failed.append(failure.replica)
                if attempt >= self._max_attempts:
                    raise PoolUnavailable(
                        f"shard failed on {attempt} replica(s); "
                        f"retries exhausted (max_attempts={self._max_attempts})"
                    ) from failure
                with self._state_lock:
                    self._shard_retries += 1
                self._m_retries.inc()
                tracer.event(
                    "shard-retry",
                    attempt=attempt,
                    replica=failure.replica,
                    kind=getattr(failure, "kind", "crash"),
                )

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
        # entries another shard (e.g. one stolen onto a different replica)
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
            # actually holds (ours, or a racing shard's equal answer).
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

        With a plan-capable backend the canonical key is
        :meth:`~repro.backends.matrix.MatrixBackend.plan_key` — the
        manager-*independent* serialization of the policy's compiled
        stage FDDs.  Structural specs, not node ids: the same policy
        compiled by two different replicas (or two semantically equal
        policies compiled by one) yields the same key, which is what lets
        all replicas share one session result cache.  Backends without
        ``plan_key`` fall back to object identity (the policy is retained
        so its id cannot be recycled).

        The key is hashed here and nowhere else — once per policy object,
        when it is interned to the small integer token every cache table
        is keyed by.  Equal keys intern to the same token.

        The caller must hold the lease of ``backend``'s replica: key
        computation may compile the policy's plan.
        """
        token = self._known_token(policy)
        if token is not None:
            return token
        plan_key_fn = getattr(backend, "plan_key", None)
        if plan_key_fn is not None:
            key: object = plan_key_fn(policy)
        else:
            key = ("policy-id", id(policy))
        with self._state_lock:
            token = self._known_token(policy)
            if token is None:
                token = self._tokens.setdefault(key, len(self._tokens))
                self._keys[id(policy)] = (policy, token)
            return token


__all__ = ["AnalysisSession"]
