"""Cross-client batch coalescing: the admission layer of the streaming server.

The paper's serving advantage is *batch-shaped*: one compiled plan per
destination answers any number of ingress packets as a single multi-RHS
solve, which is why pre-built batch files (PRs 3-5) scale.  Production
traffic is not batch-shaped — it is N independent clients each asking one
question at a time.  This module recovers the batched advantage for
streams: queries are **admitted** as they arrive and held for a short
*admission window* (a few milliseconds); everything admitted within one
window — across *all* clients — is dispatched as one batch through the
session's ordinary pipeline (one solve per destination), so N
concurrent single queries for one destination become one multi-RHS solve.

Failure semantics, because an admission layer is only as good as its
edges:

* **Backpressure** — the admission queue is bounded (``max_pending``
  outstanding queries).  When it is full, :meth:`BatchCoalescer.submit`
  fails *fast* with :class:`Overloaded` instead of queueing unboundedly;
  the server turns that into a retryable slow-down response.
* **Deadlines** — a query may carry a deadline.  A query whose deadline
  passes before its batch is dispatched, or whose batch completes after
  the deadline, is answered with :class:`DeadlineExceeded` — an explicit
  error to its own client, never a silent drop.
* **Isolation** — a poisoned batch (one query for an unknown destination
  can fail the whole coalesced ``query_batch``) is retried query by
  query, so exactly the bad queries get the error and every innocent
  bystander coalesced into the same window still gets its answer.
* **Classification** — failures are sorted into *retryable*
  infrastructure conditions and *terminal* semantic errors before
  reaching clients: a replica crash or a pool with no replica left
  (:class:`~repro.service.pool.ReplicaFailure` /
  :class:`~repro.service.pool.PoolUnavailable`) becomes
  :class:`Unavailable` (``retry: true`` — the crashed replica has left
  the rotation, and a resent query goes to the remaining ones) for
  every query of the batch, without isolation: no query caused it.  A
  genuinely bad query keeps its non-retryable error.
* **Drain** — :meth:`BatchCoalescer.aclose` refuses new admissions,
  flushes the pending window immediately, and waits for every in-flight
  answer to be delivered, which is what makes server shutdown lossless.

The coalescer runs on the event loop; the actual solves run on the
session's dispatch thread pool (``session.submit_batch``), so admission
latency stays in microseconds while solves proceed in parallel.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

from repro.service.results import Query, QueryResult
from repro.service.telemetry import Counters


class QueryRejected(RuntimeError):
    """Base class of per-query admission failures (code + message)."""

    #: Stable machine-readable error code (mirrored in server replies).
    code = "rejected"

    #: Whether the client should retry the same query after backing off.
    retryable = False


class Overloaded(QueryRejected):
    """The bounded admission queue is full: slow down and retry."""

    code = "overloaded"
    retryable = True


class DeadlineExceeded(QueryRejected):
    """The query's deadline passed before its answer could be served."""

    code = "deadline-exceeded"
    retryable = False


class ShuttingDown(QueryRejected):
    """The coalescer is draining for shutdown and admits nothing new."""

    code = "shutting-down"
    retryable = False


class Unavailable(QueryRejected):
    """A backend replica died mid-query, or none is left — retry.

    Raised in place of a raw :class:`~repro.service.pool.ReplicaFailure`
    or :class:`~repro.service.pool.PoolUnavailable` so streamed clients
    see a *retryable* wire error: the dead replica has left the pool's
    rotation, so a resent query is served by a remaining one.
    """

    code = "unavailable"
    retryable = True


def classify_failure(error: BaseException) -> BaseException:
    """Map transport/replica failures to retryable errors, pass the rest.

    The split the wire contract relies on: infrastructure failures
    (a replica crashed, or none is left) become :class:`Unavailable`
    (``retry: true``); semantic query
    errors (unknown destination, bad kind) come back unchanged and stay
    terminal — resending those would fail identically.
    """
    from repro.service.pool import PoolUnavailable, ReplicaFailure

    if isinstance(error, (ReplicaFailure, PoolUnavailable)):
        mapped = Unavailable(f"backend replicas temporarily unavailable: {error}")
        mapped.__cause__ = error
        return mapped
    return error


@dataclass(frozen=True)
class CoalescedAnswer:
    """One answered streamed query plus its coalescing provenance.

    ``batch`` is the number of queries dispatched in the same coalesced
    batch — direct per-answer evidence of cross-client coalescing (a
    streamed single query answered with ``batch > 1`` shared its solve).
    """

    result: QueryResult
    batch: int

    @property
    def value(self) -> object:
        return self.result.value


#: The coalescer's event counts: ``stats()`` key -> help text of its
#: ``repro_coalescer_<key>_total`` series.
_COUNTERS = {
    "submitted": "Queries offered for admission",
    "answered": "Queries answered with a value",
    "batches": "Coalesced batches dispatched",
    "coalesced_queries": "Queries dispatched in coalesced batches",
    "deadline_exceeded": "Queries answered with a deadline error",
    "overloaded": "Admissions refused because the admission queue was full",
    "isolation_retries": "Failed batches retried query by query",
    "unavailable": "Queries failed because no replica could serve them",
}


@dataclass
class _Pending:
    """One admitted query waiting in the current window."""

    query: Query
    deadline: float | None
    future: asyncio.Future
    submitted: float


class BatchCoalescer:
    """Admission window + bounded queue over an ``AnalysisSession``.

    Parameters
    ----------
    session:
        The serving session.  Batches are dispatched through its
        ``submit_batch`` (the executor's dispatch pool), so the event
        loop never blocks on a solve.  Its telemetry holds the
        coalescer's counters, and with tracing on every admission window
        becomes a ``coalesce-window`` span — per-query ``admitted``
        events, a dispatch event naming why the window closed — that
        parents the dispatched batch's ``request`` span, so the exported
        trace shows exactly which clients shared a solve.
    window:
        Admission window in seconds (default 4 ms).  The first query
        admitted into an empty window arms a timer; everything submitted
        before it fires joins the same batch.  ``0`` disables coalescing:
        every query dispatches immediately as a batch of one (the
        configuration the benchmark uses as its baseline).
    max_batch:
        Dispatch early once a window has accumulated this many queries,
        bounding both batch latency and per-batch memory.
    max_pending:
        Bound on *outstanding* queries (admitted but unanswered, in the
        window or in flight).  Admissions beyond it fail with
        :class:`Overloaded`.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        session,
        *,
        window: float = 0.004,
        max_batch: int = 256,
        max_pending: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window < 0:
            raise ValueError("window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._session = session
        self.window = window
        self.max_batch = max_batch
        self.max_pending = max_pending
        self._clock = clock
        self._tracer = session.telemetry.tracer
        self._window_span = None
        metrics = session.telemetry.metrics
        self._count = Counters(metrics, "repro_coalescer_", _COUNTERS)
        self._depth = metrics.gauge(
            "repro_coalescer_depth", "Outstanding admitted-but-unanswered queries"
        ).labels()
        self._batch_max = metrics.gauge(
            "repro_coalescer_batch_max", "Largest batch the serving coalescer dispatched"
        ).labels()
        self._batch_max.set(0)
        self._pending: list[_Pending] = []
        self._timer: asyncio.TimerHandle | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight: set[asyncio.Future] = set()
        # Admission reads this plain int; the depth gauge mirrors it.
        self._outstanding = 0
        self._closing = False

    # -- admission -------------------------------------------------------------
    @property
    def closing(self) -> bool:
        return self._closing

    async def submit(self, query: Query, *, deadline: float | None = None) -> CoalescedAnswer:
        """Admit one query and await its answer.

        ``deadline`` is an absolute time on this coalescer's clock
        (``time.monotonic()`` by default).  Raises :class:`Overloaded`,
        :class:`DeadlineExceeded`, or :class:`ShuttingDown` — all carry a
        machine-readable ``code`` the server maps onto wire errors.
        """
        return await self.submit_nowait(query, deadline=deadline)

    def submit_nowait(self, query: Query, *, deadline: float | None = None) -> asyncio.Future:
        """Admit one query; returns the future of its :class:`CoalescedAnswer`.

        Admission itself is synchronous (and cheap): rejections raise
        immediately rather than travelling through the future, so an
        overloaded server answers "slow down" without consuming a slot.
        """
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        self._count["submitted"].inc()
        if self._closing:
            raise ShuttingDown("the server is shutting down")
        now = self._clock()
        if deadline is not None and now >= deadline:
            self._count["deadline_exceeded"].inc()
            raise DeadlineExceeded("deadline expired before admission")
        if self._outstanding >= self.max_pending:
            self._count["overloaded"].inc()
            if self._window_span is not None:
                self._window_span.event("overloaded", outstanding=self._outstanding)
            raise Overloaded(
                f"admission queue is full ({self._outstanding} outstanding)"
            )
        future: asyncio.Future = self._loop.create_future()
        if not self._pending and self._tracer.enabled:
            # First admission into an empty window roots the window span.
            # Created un-entered: the event loop's ambient context must not
            # leak into unrelated callbacks, so parentage is explicit.
            self._window_span = self._tracer.span(
                "coalesce-window", window=self.window, max_batch=self.max_batch
            )
        if self._window_span is not None:
            self._window_span.event("admitted", kind=query.kind, dest=query.dest)
        self._pending.append(_Pending(query, deadline, future, now))
        self._outstanding += 1
        self._depth.set(self._outstanding)
        self._track(future)
        if self.window <= 0:
            self._flush(reason="immediate")
        elif len(self._pending) >= self.max_batch:
            self._flush(reason="max-batch")
        elif self._timer is None:
            self._timer = self._loop.call_later(self.window, self._flush)
        return future

    # -- dispatch --------------------------------------------------------------
    def _flush(self, reason: str = "window") -> None:
        """Dispatch the current window as one coalesced batch.

        ``reason`` records why the window closed — its timer expired
        (``"window"``), it filled to ``max_batch`` (``"max-batch"``),
        or coalescing is off (``"immediate"``) — as a span event.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        entries = self._pending
        self._pending = []
        window_span, self._window_span = self._window_span, None
        if not entries:
            if window_span is not None:
                window_span.finish()
            return
        live: list[_Pending] = []
        now = self._clock()
        for entry in entries:
            if entry.deadline is not None and now >= entry.deadline:
                self._resolve_deadline(entry, "expired while awaiting dispatch")
            else:
                live.append(entry)
        if not live:
            if window_span is not None:
                window_span.set(admitted=len(entries), dispatched=0).finish()
            return
        self._count["batches"].inc()
        self._count["coalesced_queries"].inc(len(live))
        if len(live) > self._batch_max.get():
            self._batch_max.set(len(live))
        trace_parent = None
        if window_span is not None:
            window_span.event("dispatch", reason=reason, batch=len(live))
            window_span.set(admitted=len(entries), dispatched=len(live))
            trace_parent = window_span.context
            window_span.finish()
        self._dispatch(live, isolate_on_error=True, trace_parent=trace_parent)

    def _dispatch(
        self,
        entries: list[_Pending],
        *,
        isolate_on_error: bool,
        trace_parent: object | None = None,
    ) -> None:
        """Hand ``entries`` to the session's dispatch pool as one batch."""
        try:
            batch = [entry.query for entry in entries]
            if trace_parent is not None:
                handle = self._session.submit_batch(batch, trace_parent=trace_parent)
            else:
                handle = self._session.submit_batch(batch)
        except Exception as exc:  # closing session, executor torn down, ...
            self._fail_all(entries, exc)
            return
        wrapped = asyncio.wrap_future(handle, loop=self._loop)
        wrapped.add_done_callback(
            lambda done: self._deliver(entries, done, isolate_on_error)
        )

    def _deliver(
        self, entries: list[_Pending], done: asyncio.Future, isolate_on_error: bool
    ) -> None:
        """Resolve every entry of a completed (or failed) batch dispatch."""
        error = done.exception()
        if error is not None:
            mapped = classify_failure(error)
            # One poisoned query fails the whole coalesced batch; retry
            # query-by-query so only the culprit sees the error.  A replica
            # crash (mapped to Unavailable) is no query's fault: all fail.
            if isolate_on_error and len(entries) > 1 and mapped is error:
                self._count["isolation_retries"].inc()
                for entry in entries:
                    self._dispatch([entry], isolate_on_error=False)
            else:
                self._fail_all(entries, mapped)
            return
        result_set = done.result()
        now = self._clock()
        batch = len(entries)
        answered = 0
        for entry, result in zip(entries, result_set.results):
            if entry.future.done():
                continue
            if entry.deadline is not None and now >= entry.deadline:
                self._resolve_deadline(entry, "answer arrived after the deadline")
                continue
            self._outstanding -= 1
            answered += 1
            entry.future.set_result(CoalescedAnswer(result, batch))
        self._count["answered"].inc(answered)
        self._depth.set(self._outstanding)

    def _resolve_deadline(self, entry: _Pending, reason: str) -> None:
        self._count["deadline_exceeded"].inc()
        self._outstanding -= 1
        self._depth.set(self._outstanding)
        if not entry.future.done():
            entry.future.set_exception(DeadlineExceeded(reason))

    def _fail_all(self, entries: list[_Pending], error: BaseException) -> None:
        # Classify before delivering: a replica crash surfaces as the
        # retryable Unavailable, which tells clients to resend rather than
        # to give up.
        mapped = classify_failure(error)
        for entry in entries:
            if not entry.future.done():
                self._outstanding -= 1
                if isinstance(mapped, Unavailable):
                    self._count["unavailable"].inc()
                entry.future.set_exception(mapped)
        self._depth.set(self._outstanding)

    def _track(self, future: asyncio.Future) -> None:
        self._inflight.add(future)
        future.add_done_callback(self._inflight.discard)
        # A client that abandons its await must not crash the loop with an
        # unretrieved-exception warning; rejections were already counted.
        future.add_done_callback(
            lambda done: done.exception() if not done.cancelled() else None
        )

    # -- lifecycle -------------------------------------------------------------
    async def drain(self) -> None:
        """Flush the pending window and wait for every admitted answer."""
        self._flush()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def aclose(self) -> None:
        """Refuse new admissions, then drain (idempotent).

        Every query admitted before the close still gets its reply — the
        lossless-drain half of the server's shutdown contract.
        """
        self._closing = True
        await self.drain()

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Admission counters; ``batch_mean`` is the coalescing headline.

        The counts are this coalescer's share of its registry series.
        ``batch_mean`` is the mean number of queries per *dispatched*
        batch — the factor by which the admission window turned streamed
        single queries back into multi-RHS solves.
        """
        counts = self._count.counts()
        batches = counts["batches"]
        return {
            **counts,
            "outstanding": self._outstanding,
            "batch_mean": counts["coalesced_queries"] / batches if batches else 0.0,
            "batch_max": int(self._batch_max.get()),
            "window": self.window,
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
        }


def coerce_stream_query(message: dict) -> Query:
    """Coerce one wire message (already JSON-decoded) into a :class:`Query`.

    Uses the same ``{"kind", "ingress", "dest"}`` shape as the CLI's
    batch files, so a batch-file line and a streamed line are the same
    query.
    """
    if "ingress" not in message:
        raise ValueError("query message needs an 'ingress' field")
    return Query.coerce(
        {
            "kind": message.get("kind", "delivery"),
            "ingress": message["ingress"],
            "dest": message.get("dest"),
        }
    )


__all__ = [
    "BatchCoalescer",
    "CoalescedAnswer",
    "DeadlineExceeded",
    "Overloaded",
    "QueryRejected",
    "ShuttingDown",
    "Unavailable",
    "classify_failure",
    "coerce_stream_query",
]
