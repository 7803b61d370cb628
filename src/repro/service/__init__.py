"""repro.service — a persistent, sharded, concurrent analysis engine.

The paper's scalability story is *compile once, query many times*; this
subsystem is that story turned into a serving layer.  Where the
functions in :mod:`repro.analysis` historically re-entered module-level
code with per-call engine setup, a :class:`AnalysisSession` holds
compiled state for as long as you keep it open and answers arbitrary
streams of queries against it.

Architecture (**session → shards → pool → backend**):

* :mod:`repro.service.session` — the :class:`AnalysisSession`: one
  compiled model per destination, a canonical-spec-keyed result cache,
  and a pool of backend replicas;
* :mod:`repro.service.pool` — the :class:`BackendPool`: N independent
  backend replicas (own FDD manager, plan caches, and ``splu``
  factorizations each), leased exclusively per shard with destination
  affinity routing, work-stealing, and in-place respawn of failed
  replicas — whatever replica source it is given;
* :mod:`repro.service.procpool` — the replica sources: the in-process
  backend (``pool_mode="thread"``, one replica, called directly), and
  worker processes (:class:`ProcessReplicas`, ``pool_mode="process"``),
  each driven by one :class:`ReplicaClient` over the manager-independent
  wire format of :mod:`repro.service.wire`, so the GIL-bound
  compile-rebuild and matrix-assembly phases parallelise too;
* :mod:`repro.service.shards` — pluggable :class:`ShardPlanner`
  strategies (by destination, by ingress block, round-robin) that cut a
  batch into exact partitions and tag shards with affinity hints;
* :mod:`repro.service.executor` — the persistent :class:`ShardExecutor`
  running shards concurrently;
* :mod:`repro.service.results` — :class:`Query`, :class:`ResultSet`,
  and per-shard reports;
* :mod:`repro.service.cli` — ``python -m repro.service``, serving a
  batch query file against a topology + routing scheme;
* :mod:`repro.service.coalesce` — the :class:`BatchCoalescer`: an
  admission window that merges queries arriving from *different*
  clients into one coalesced batch, with bounded-queue backpressure,
  per-query deadlines, and poisoned-batch isolation;
* :mod:`repro.service.server` — the :class:`QueryServer`:
  ``python -m repro.service serve``, an asyncio JSON-lines-over-TCP
  streaming front end with per-reply correlation ids, graceful lossless
  drain, and a queue-depth :class:`PoolAutoscaler`;
* :mod:`repro.service.transport` — the :class:`PipeTransport` under
  worker replicas, which also owns worker liveness (it watches the
  worker's process sentinel) and reports typed failures
  (:class:`TransportClosed`) instead of hangs; plus a frame codec kept
  for the benchmark's wire metrics;
* :mod:`repro.service.faults` — the :class:`FaultPlan` fault-injection
  harness (``REPRO_FAULTS``): deterministic worker kills, reply delays,
  and dropped pipes for chaos-testing the supervision layer;
* :mod:`repro.service.telemetry` — zero-dependency observability: a
  :class:`Tracer` producing one span tree per request (``request →
  shard → lease → worker:query → phase:*``, propagated across the
  process boundary and re-parented on return), a
  :class:`MetricsRegistry` of counters/gauges/histograms, and
  exporters for Perfetto (Chrome trace JSON), JSONL, and Prometheus
  text exposition — all off by default with a constant-cost disabled
  path.

Fault tolerance: replica failure is supervised and recoverable — a
crashed or hung worker is quarantined, respawned in place (plans
re-shipped as specs), and its shard transparently retried on a healthy
replica (:class:`ReplicaFailure` → bounded retry →
:class:`PoolUnavailable`); streamed clients see at most a retryable
``unavailable`` error (:class:`Unavailable`).

Quick start::

    from repro.service import AnalysisSession, Query

    session = AnalysisSession(model_factory=lambda dest: build_model(...))
    batch = [Query.delivery((sw, pt), dest) for ...]
    results = session.query_batch(batch)       # sharded, cached, concurrent
    session.close()

Sessions also satisfy the analysis engine protocol, so every
``repro.analysis`` entry point accepts ``session=`` (or the session as
``backend=``) and gains the session's caches transparently.
"""

from repro.service.coalesce import (
    BatchCoalescer,
    CoalescedAnswer,
    DeadlineExceeded,
    Overloaded,
    QueryRejected,
    ShuttingDown,
    Unavailable,
)
from repro.service.executor import ShardExecutor
from repro.service.faults import Fault, FaultPlan
from repro.service.pool import (
    BackendPool,
    PoolUnavailable,
    Replica,
    ReplicaFailure,
)
from repro.service.procpool import (
    ProcessReplicas,
    ReplicaClient,
    open_pool,
)
from repro.service.results import (
    QUERY_KINDS,
    Query,
    QueryResult,
    ResultSet,
    ShardReport,
)
from repro.service.server import PoolAutoscaler, QueryServer, StreamClient
from repro.service.session import AnalysisSession
from repro.service.shards import (
    PLANNERS,
    ByDestinationPlanner,
    ByIngressBlockPlanner,
    RoundRobinPlanner,
    Shard,
    ShardPlanner,
    get_planner,
    validate_partition,
)
from repro.service.telemetry import (
    MetricsRegistry,
    SpanContext,
    Telemetry,
    Tracer,
    span_tree,
)
from repro.service.transport import (
    FrameError,
    PipeTransport,
    TransportClosed,
    TransportError,
)
from repro.service.wire import QuerySpec, ResultSpec

__all__ = [
    "PLANNERS",
    "QUERY_KINDS",
    "AnalysisSession",
    "BackendPool",
    "BatchCoalescer",
    "ByDestinationPlanner",
    "ByIngressBlockPlanner",
    "CoalescedAnswer",
    "DeadlineExceeded",
    "Fault",
    "FaultPlan",
    "FrameError",
    "MetricsRegistry",
    "Overloaded",
    "PipeTransport",
    "PoolAutoscaler",
    "PoolUnavailable",
    "ProcessReplicas",
    "Query",
    "QueryRejected",
    "QueryResult",
    "QuerySpec",
    "QueryServer",
    "Replica",
    "ReplicaClient",
    "ReplicaFailure",
    "ResultSet",
    "ResultSpec",
    "RoundRobinPlanner",
    "Shard",
    "ShardExecutor",
    "ShardPlanner",
    "ShardReport",
    "ShuttingDown",
    "SpanContext",
    "StreamClient",
    "Telemetry",
    "Tracer",
    "TransportClosed",
    "TransportError",
    "Unavailable",
    "get_planner",
    "open_pool",
    "span_tree",
    "validate_partition",
]
