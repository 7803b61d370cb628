"""repro.service — a persistent, concurrent analysis engine.

The paper's scalability story is *compile once, query many times*; this
subsystem is that story turned into a serving layer.  Where the
functions in :mod:`repro.analysis` historically re-entered module-level
code with per-call engine setup, a :class:`AnalysisSession` holds
compiled state for as long as you keep it open and answers arbitrary
streams of queries against it.

Architecture (**session → pool → backend**):

* :mod:`repro.service.session` — the :class:`AnalysisSession`: one
  compiled model per destination, a canonical-spec-keyed result cache,
  and a pool of backend replicas; a batch is one backend call per
  destination;
* :mod:`repro.service.pool` — the :class:`BackendPool`: N independent
  backend replicas (own FDD manager, plan caches, and ``splu``
  factorizations each), leased exclusively per destination group, the
  lowest-index free replica first — whatever replica source it is
  given; a replica whose worker died leaves the rotation;
* :mod:`repro.service.procpool` — the replica sources: the in-process
  backend (``pool_mode="thread"``, one replica, called directly), and
  worker processes (:class:`ProcessReplicas`, ``pool_mode="process"``),
  each driven by one :class:`ReplicaClient` over the manager-independent
  wire format of :mod:`repro.service.wire`, so the GIL-bound
  compile-rebuild and matrix-assembly phases parallelise too;
* :mod:`repro.service.executor` — the persistent :class:`ShardExecutor`:
  the dispatch threads of :meth:`AnalysisSession.submit_batch`, and the
  threads destination groups fan out over when there are several
  replicas;
* :mod:`repro.service.results` — :class:`Query`, :class:`ResultSet`,
  and per-destination reports;
* :mod:`repro.service.cli` — ``python -m repro.service``, serving a
  batch query file against a topology + routing scheme;
* :mod:`repro.service.coalesce` — the :class:`BatchCoalescer`: an
  admission window that merges queries arriving from *different*
  clients into one coalesced batch, with bounded-queue backpressure,
  per-query deadlines, and poisoned-batch isolation;
* :mod:`repro.service.server` — the :class:`QueryServer`:
  ``python -m repro.service serve``, an asyncio JSON-lines-over-TCP
  streaming front end with per-reply correlation ids and graceful
  lossless drain;
* :mod:`repro.service.transport` — the :class:`PipeTransport` under
  worker replicas, which also owns worker liveness (it watches the
  worker's process sentinel) and reports a dead worker as
  :class:`TransportClosed` instead of a hang; plus a frame codec kept
  for the benchmark's wire metrics;
* :mod:`repro.service.telemetry` — zero-dependency observability: a
  :class:`Tracer` producing one span tree per request (``request →
  shard → lease → worker:query → phase:*``, propagated across the
  process boundary and re-parented on return), a
  :class:`MetricsRegistry` of counters/gauges/histograms that holds
  every serving count ``stats()`` reports, and exporters for Perfetto
  (Chrome trace JSON) and Prometheus text exposition — tracing off by
  default with a constant-cost disabled path.

Crashes: a worker that dies fails the destination group it was
solving with :class:`ReplicaFailure` and leaves the pool's rotation;
later batches are served by the remaining replicas, and
:class:`PoolUnavailable` says none is left.  Nothing is respawned or
retried.  Streamed clients see both as the retryable ``unavailable``
error (:class:`Unavailable`).

Quick start::

    from repro.service import AnalysisSession, Query

    session = AnalysisSession(model_factory=lambda dest: build_model(...))
    batch = [Query.delivery((sw, pt), dest) for ...]
    results = session.query_batch(batch)       # one solve per destination, cached
    session.close()

Sessions also satisfy the analysis engine protocol, so every
``repro.analysis`` entry point accepts the session as ``backend=`` and
gains the session's caches transparently.
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
from repro.service.server import QueryServer, StreamClient
from repro.service.session import AnalysisSession
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
    "QUERY_KINDS",
    "AnalysisSession",
    "BackendPool",
    "BatchCoalescer",
    "CoalescedAnswer",
    "DeadlineExceeded",
    "FrameError",
    "MetricsRegistry",
    "Overloaded",
    "PipeTransport",
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
    "ShardExecutor",
    "ShardReport",
    "ShuttingDown",
    "SpanContext",
    "StreamClient",
    "Telemetry",
    "Tracer",
    "TransportClosed",
    "TransportError",
    "Unavailable",
    "open_pool",
    "span_tree",
]
