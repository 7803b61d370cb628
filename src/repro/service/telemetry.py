"""Zero-dependency tracing + metrics for the serving stack.

The service pipeline now has five layers between a client and a
``splu`` solve — coalescer, session, executor, pool lease, worker
process — and ad-hoc ``stats()`` dicts cannot answer "where did this
query's 50 ms go?".  This module is the observability layer threaded
through all of them:

* **Span tracing** — a :class:`Tracer` produces nested spans
  (``request → shard → lease → worker:query → phase:assemble`` /
  ``phase:factorize`` / ``phase:solve``) carrying a
  shared trace id, wall-clock start/end stamps, attributes, and point
  events.  Nesting is tracked per thread via a :class:`~contextvars.ContextVar`
  for same-thread callees, and by *explicit* :class:`SpanContext`
  hand-off where work hops threads (the executor) or processes
  (the worker pool — contexts travel as plain tuples on
  :class:`~repro.service.wire.QuerySpec` and finished worker spans ship
  back in the reply stats blob, re-parented into the caller's trace by
  :meth:`Tracer.ingest`).  Span timestamps are ``time.time()`` epoch
  seconds precisely so one timeline covers parent and workers.
* **Metrics** — a :class:`MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms with optional labels, rendered in Prometheus
  text exposition format by :meth:`MetricsRegistry.to_prometheus`.  It
  is the one store of the serving counters: each component's
  ``stats()`` reads its series back.
* **Exporter** — Chrome trace event JSON (:meth:`Tracer.chrome_trace`,
  loadable in Perfetto / ``chrome://tracing``).

Cost model, because observability must not cost what it observes:
tracing is **off by default** and the disabled fast path is a couple of
attribute checks returning the shared :data:`NOOP_SPAN` singleton — no
allocation, no lock, no timestamp.  When tracing is on, every root
records.  The span buffer is bounded (``max_spans``); overflow
increments a dropped counter rather than growing without bound.

Lock note: the tracer's buffer lock and every registry lock are *leaf*
locks in the service hierarchy (dict/list ops only, never held across a
callback or another lock), so instrumentation points inside leases or
under the session state lock cannot deadlock.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from bisect import bisect_left
from contextvars import ContextVar
from typing import Callable, Iterable, NamedTuple

#: The per-thread (per-``contextvars`` context) innermost active span.
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_current_span", default=None)


class SpanContext(NamedTuple):
    """The propagatable identity of a span: plain data, picklable.

    This is what crosses thread and process boundaries — a worker
    receives the parent's context as a tuple on the wire and parents its
    own spans to ``span_id`` under ``trace_id``.
    """

    trace_id: int
    span_id: int


def _coerce_parent(parent) -> SpanContext | None:
    """Accept a Span, a SpanContext, a bare wire tuple, or ``None``."""
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    if isinstance(parent, SpanContext):
        return parent
    # Wire form: a plain (trace_id, span_id) tuple.
    trace_id, span_id = parent
    return SpanContext(int(trace_id), int(span_id))


class Span:
    """One timed operation in a trace (context manager).

    A span records its window with ``time.time()`` stamps, arbitrary
    ``set()`` attributes, and ``event()`` point annotations.  Entering
    the span makes it the thread's *current* span (children created
    without an explicit parent nest under it); exiting restores the
    previous one and pushes the finished record into the tracer's buffer.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "events",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        attrs: dict | None = None,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time()
        self.end: float | None = None
        self.attrs = dict(attrs) if attrs else {}
        self.events: list[tuple[str, float, dict]] = []
        self._token = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attrs) -> "Span":
        """Attach attributes."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> "Span":
        """Attach a point-in-time annotation."""
        self.events.append((name, time.time(), attrs))
        return self

    def finish(self) -> None:
        """Close the span and buffer its record."""
        if self.end is not None:
            return
        self.end = time.time()
        self.tracer._record(
            {
                "type": "span",
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "attrs": self.attrs,
                "events": [list(entry) for entry in self.events],
            }
        )

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc is not None:
            self.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id:x}, span={self.span_id:x})"


class _NoopSpan:
    """The do-nothing span of a *disabled* tracer (a shared singleton).

    Every method is a constant-cost no-op; it never touches the context
    var, never reads a clock, and never allocates — the whole point of
    the off-by-default contract.
    """

    __slots__ = ()
    context = None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NOOP_SPAN"


#: The shared disabled-path span: identity-comparable, allocation-free.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces, buffers, and exports spans.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled tracers hand out :data:`NOOP_SPAN` from
        every entry point after a single attribute check.
    max_spans:
        Bound on buffered finished spans; overflow is counted in
        ``dropped`` instead of growing the buffer.
    """

    def __init__(self, *, enabled: bool = False, max_spans: int = 100_000):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.enabled = enabled
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self.dropped = 0

    # -- span creation -----------------------------------------------------
    def span(self, name: str, parent=None, **attrs):
        """Open a span (use as a context manager).

        ``parent`` may be a :class:`Span`, a :class:`SpanContext`, a wire
        tuple, or ``None`` — ``None`` nests under the thread's current
        span, or starts a new root when there is none.  Disabled tracers
        return :data:`NOOP_SPAN`.
        """
        if not self.enabled:
            return NOOP_SPAN
        ctx = _coerce_parent(parent) or self.current_context()
        if ctx is None:
            trace_id, parent_id = random.getrandbits(63), None
        else:
            trace_id, parent_id = ctx
        return Span(self, name, trace_id, random.getrandbits(63), parent_id, attrs or None)

    def current_context(self) -> SpanContext | None:
        """The context of the thread's current span, if any."""
        if not self.enabled:
            return None
        current = _CURRENT.get()
        return None if current is None else current.context

    def record_span(self, name: str, start: float, end: float, parent=None, **attrs) -> None:
        """Record an already-timed operation as a completed span.

        The hook for phase listeners (:class:`~repro.utils.timing.Stopwatch`):
        the work was measured elsewhere; this just files it under
        ``parent`` (default: the current span).  Without a parent
        nothing is recorded — timed phases outside any traced request are
        not worth orphan roots.
        """
        if not self.enabled:
            return
        ctx = _coerce_parent(parent) or self.current_context()
        if ctx is None:
            return
        self._record(
            {
                "type": "span",
                "trace": ctx.trace_id,
                "span": random.getrandbits(63),
                "parent": ctx.span_id,
                "name": name,
                "start": start,
                "end": end,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "attrs": dict(attrs) if attrs else {},
                "events": [],
            }
        )

    def event(self, name: str, **attrs) -> None:
        """Attach a point event to the current span (drop it otherwise)."""
        if not self.enabled:
            return
        current = _CURRENT.get()
        if current is not None:
            current.event(name, **attrs)

    def phase_listener(self) -> Callable[[str, float], None]:
        """A :class:`~repro.utils.timing.Stopwatch` listener recording phases.

        Each measured section becomes a ``phase:<name>`` span under the
        listener thread's current span (the replica lease in thread
        mode, the worker's query span in process mode).
        """

        def listen(name: str, elapsed: float) -> None:
            end = time.time()
            self.record_span(f"phase:{name}", end - elapsed, end)

        return listen

    # -- buffering -----------------------------------------------------------
    def _record(self, record: dict) -> None:
        with self._lock:
            if len(self._records) >= self._max_spans:
                self.dropped += 1
                return
            self._records.append(record)

    def ingest(self, records: Iterable[dict]) -> None:
        """Adopt finished span records produced elsewhere (worker replies).

        Worker-side spans already carry the caller's trace id and parent
        span id (propagated over the wire), so adoption is a plain
        buffer append — the re-parenting happened at creation time.
        """
        if not self.enabled:
            return
        for record in records:
            self._record(dict(record))

    def take(self) -> list[dict]:
        """Drain and return the buffered records (worker → reply shipping)."""
        with self._lock:
            records, self._records = self._records, []
            return records

    def spans(self) -> list[dict]:
        """A snapshot copy of the buffered records."""
        with self._lock:
            return [dict(record) for record in self._records]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- exporters -------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The buffered trace as Chrome trace event JSON (Perfetto-loadable).

        Spans become ``ph: "X"`` complete events (µs timestamps on the
        shared epoch clock, so parent and worker rows line up); span
        events become ``ph: "i"`` instants.
        """
        events: list[dict] = []
        for record in self.spans():
            ts = record["start"] * 1e6
            events.append(
                {
                    "ph": "X",
                    "name": record["name"],
                    "cat": "repro",
                    "ts": ts,
                    "dur": max(0.0, (record["end"] - record["start"]) * 1e6),
                    "pid": record["pid"],
                    "tid": record["tid"],
                    "args": {
                        "trace": f"{record['trace']:x}",
                        "span": f"{record['span']:x}",
                        "parent": None
                        if record["parent"] is None
                        else f"{record['parent']:x}",
                        **record["attrs"],
                    },
                }
            )
            for name, when, attrs in record["events"]:
                events.append(
                    {
                        "ph": "i",
                        "name": name,
                        "cat": "repro",
                        "ts": when * 1e6,
                        "pid": record["pid"],
                        "tid": record["tid"],
                        "s": "t",
                        "args": dict(attrs),
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON to ``path``; returns the event count."""
        trace = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
            handle.write("\n")
        return len(trace["traceEvents"])


# -- metrics ---------------------------------------------------------------

#: Default histogram buckets: request latencies from 1 ms to 60 s.
LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: Default histogram buckets for sizes/counts (powers of two to 1024).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


class _Child:
    """One labelled series of a family (all mutation under the family lock)."""

    __slots__ = ("_family", "value", "bucket_counts", "sum", "count")

    def __init__(self, family: "_Family"):
        self._family = family
        self.value = 0.0
        if family.kind == "histogram":
            self.bucket_counts = [0] * (len(family.buckets) + 1)
            self.sum = 0.0
            self.count = 0

    def inc(self, amount: float = 1.0) -> None:
        with self._family.lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._family.lock:
            self.value -= amount

    def set(self, value: float) -> None:
        with self._family.lock:
            self.value = float(value)

    def get(self) -> float:
        with self._family.lock:
            return self.value

    def observe(self, value: float) -> None:
        family = self._family
        index = bisect_left(family.buckets, value)
        with family.lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


class _Family:
    """One named metric family: a kind, label names, and its children."""

    __slots__ = ("name", "help", "kind", "labelnames", "buckets", "lock", "children")

    def __init__(self, name: str, help_text: str, kind: str, labelnames: tuple, buckets=()):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = tuple(sorted(buckets))
        self.lock = threading.Lock()
        self.children: dict[tuple, _Child] = {}

    def labels(self, **labels) -> _Child:
        """The child series for one label-value assignment.

        Every update goes through a child: bind it once (``labels()`` for
        a label-less family) and keep it, off the per-call path.
        """
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self.lock:
            child = self.children.get(key)
            if child is None:
                child = self.children[key] = _Child(self)
            return child


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labelnames: tuple, key: tuple, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in zip(labelnames, key)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms with Prometheus output.

    Instruments are created idempotently — asking twice for the same
    name returns the same family (and raises on a kind mismatch), so
    independently constructed components can share one registry without
    coordinating.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, name: str, help_text: str, kind: str, labelnames, buckets=()) -> _Family:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                    )
                return family
            family = _Family(name, help_text, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labelnames=()) -> _Family:
        """A monotonically increasing counter family."""
        return self._register(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str = "", labelnames=()) -> _Family:
        """A set/inc/dec gauge family."""
        return self._register(name, help_text, "gauge", labelnames)

    def histogram(
        self, name: str, help_text: str = "", labelnames=(), buckets=LATENCY_BUCKETS
    ) -> _Family:
        """A fixed-bucket histogram family (cumulative Prometheus buckets)."""
        return self._register(name, help_text, "histogram", labelnames, buckets)

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            with family.lock:
                children = sorted(family.children.items())
                if family.kind == "histogram":
                    for key, child in children:
                        cumulative = 0
                        for bound, count in zip(family.buckets, child.bucket_counts):
                            cumulative += count
                            labels = _label_str(
                                family.labelnames, key, f'le="{_format_value(bound)}"'
                            )
                            lines.append(f"{family.name}_bucket{labels} {cumulative}")
                        cumulative += child.bucket_counts[-1]
                        labels = _label_str(family.labelnames, key, 'le="+Inf"')
                        lines.append(f"{family.name}_bucket{labels} {cumulative}")
                        plain = _label_str(family.labelnames, key)
                        lines.append(f"{family.name}_sum{plain} {_format_value(child.sum)}")
                        lines.append(f"{family.name}_count{plain} {child.count}")
                else:
                    for key, child in children:
                        labels = _label_str(family.labelnames, key)
                        lines.append(
                            f"{family.name}{labels} {_format_value(child.value)}"
                        )
        return "\n".join(lines) + "\n"


class Counters:
    """One component's label-less counters, kept in a shared registry.

    ``counters[key].inc()`` bumps the ``<prefix><key>_total`` series.
    The registry outlives the component (a session serves one coalescer
    or server after another), so :meth:`counts` reads each series back
    as counted since this object was made.
    """

    def __init__(self, metrics: MetricsRegistry, prefix: str, help_texts: dict[str, str]):
        self._series = {
            key: metrics.counter(f"{prefix}{key}_total", text).labels()
            for key, text in help_texts.items()
        }
        self._base = {key: child.get() for key, child in self._series.items()}

    def __getitem__(self, key: str) -> _Child:
        return self._series[key]

    def counts(self) -> dict[str, int]:
        return {key: int(child.get() - self._base[key]) for key, child in self._series.items()}


class Telemetry:
    """The per-session observability bundle: one tracer + one registry.

    ``Telemetry()`` is the always-safe default — tracing disabled (the
    :data:`NOOP_SPAN` fast path), metrics live.  ``Telemetry(tracing=True)``
    turns on span collection.
    """

    def __init__(
        self,
        *,
        tracing: bool = False,
        max_spans: int = 100_000,
        metrics: MetricsRegistry | None = None,
    ):
        self.tracer = Tracer(enabled=tracing, max_spans=max_spans)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @classmethod
    def coerce(cls, value) -> "Telemetry":
        """``None``/``False`` → disabled, ``True`` → tracing, instance → itself."""
        if isinstance(value, cls):
            return value
        if value is None or value is False:
            return cls()
        if value is True:
            return cls(tracing=True)
        raise TypeError(f"cannot interpret {value!r} as telemetry configuration")

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled


def span_tree(records: Iterable[dict]) -> dict[int | None, list[dict]]:
    """Group span records by parent id: ``{parent_span_id: [children]}``.

    A convenience for tests and tools walking an exported trace —
    ``tree[None]`` are the roots; recurse via each record's ``"span"``.
    """
    tree: dict[int | None, list[dict]] = {}
    for record in records:
        tree.setdefault(record.get("parent"), []).append(record)
    return tree


__all__ = [
    "LATENCY_BUCKETS",
    "NOOP_SPAN",
    "Counters",
    "SIZE_BUCKETS",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "Telemetry",
    "Tracer",
    "span_tree",
]
