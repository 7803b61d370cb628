"""Tests for the observability layer (``repro.service.telemetry``):
span tracing — including propagation across the worker-process
boundary — the metrics registry, the exporters, and the instrumentation
threaded through the serving stack.

The headline acceptance test (:class:`TestCrossProcessTrace`) serves
the 112-pair FatTree k=4 all-pairs batch on a 2-worker process pool and
checks that the exported trace is ONE tree — worker-side solver spans,
produced in processes with pids different from the parent's, nest under
the correct lease/shard/request spans.  The chaos-marked variant
checks that the tree stays whole when a SIGKILLed worker fails the
batch.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from collections import Counter

import pytest

from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.service import (
    AnalysisSession,
    MetricsRegistry,
    Query,
    QueryServer,
    SpanContext,
    StreamClient,
    Telemetry,
    Tracer,
    span_tree,
)
from repro.service.pool import ReplicaFailure
from repro.service.telemetry import NOOP_SPAN
from repro.topology import edge_switches, fat_tree
from repro.utils.timing import Stopwatch

from polling import wait_until


def ecmp_model(topo, dest: int):
    return build_model(topo, routing=ecmp_policy(topo, dest), dest=dest)


@pytest.fixture(scope="module")
def topo():
    return fat_tree(4)


@pytest.fixture(scope="module")
def all_models(topo):
    """One model per edge destination: the full FatTree k=4 query space."""
    return {dest: ecmp_model(topo, dest) for dest in edge_switches(topo)}


@pytest.fixture(scope="module")
def all_pairs(all_models):
    """The 112-pair all-pairs delivery batch of the acceptance criterion."""
    batch = [
        Query.delivery(packet, dest)
        for dest, model in all_models.items()
        for packet in model.ingress_packets
    ]
    assert len(batch) == 112
    return batch


@pytest.fixture(scope="module")
def two_models(all_models):
    """A cheap two-destination slice for the lighter-weight tests."""
    dests = list(all_models)[:2]
    return {dest: all_models[dest] for dest in dests}


def by_span_id(records):
    return {record["span"]: record for record in records}


def depth_of(record, by_id):
    """Ancestor count of ``record`` within the exported tree."""
    depth = 0
    current = record
    while current["parent"] is not None and current["parent"] in by_id:
        current = by_id[current["parent"]]
        depth += 1
    return depth


def ancestors(record, by_id):
    chain = []
    current = record
    while current["parent"] is not None and current["parent"] in by_id:
        current = by_id[current["parent"]]
        chain.append(current)
    return chain


def assert_single_tree(records):
    """Every record shares one trace id and parents resolve to one root."""
    assert records, "no spans were recorded"
    traces = {record["trace"] for record in records}
    assert len(traces) == 1, f"expected one trace, got {len(traces)}"
    by_id = by_span_id(records)
    roots = [r for r in records if r["parent"] is None or r["parent"] not in by_id]
    assert len(roots) == 1, f"expected one root, got {[r['name'] for r in roots]}"
    return roots[0], by_id


# ---------------------------------------------------------------------------
# Span mechanics
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nesting_follows_the_context_var(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        records = tracer.spans()
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent"] == records[1]["span"]
        assert records[1]["parent"] is None

    def test_explicit_parent_beats_the_current_span(self):
        tracer = Tracer(enabled=True)
        remote = SpanContext(trace_id=7, span_id=13)
        with tracer.span("ambient"):
            with tracer.span("child", parent=remote) as child:
                assert child.trace_id == 7
                assert child.parent_id == 13

    def test_wire_tuple_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("child", parent=(21, 42, True)) as child:
            assert child.trace_id == 21
            assert child.parent_id == 42
        (record,) = tracer.spans()
        assert record["trace"] == 21 and record["parent"] == 42

    def test_attrs_events_and_timestamps(self):
        tracer = Tracer(enabled=True)
        before = time.time()
        with tracer.span("op", color="red") as span:
            span.set(size=3)
            span.event("milestone", step=1)
        after = time.time()
        (record,) = tracer.spans()
        assert record["attrs"] == {"color": "red", "size": 3}
        [(name, when, attrs)] = record["events"]
        assert name == "milestone" and attrs == {"step": 1}
        assert before <= record["start"] <= when <= record["end"] <= after
        assert record["pid"] == os.getpid()

    def test_exception_is_recorded_and_context_restored(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("solver exploded")
        (record,) = tracer.spans()
        assert record["attrs"]["error"] == "RuntimeError: solver exploded"
        assert tracer.current_context() is None

    def test_tracer_event_lands_on_the_current_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("op"):
            tracer.event("retry", attempt=2)
        (record,) = tracer.spans()
        assert record["events"][0][0] == "retry"

    def test_buffer_bound_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for _ in range(3):
            with tracer.span("r"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 1

    def test_take_drains_and_ingest_readopts(self):
        worker = Tracer(enabled=True)
        with worker.span("worker:query", parent=(5, 9, True)):
            pass
        shipped = worker.take()
        assert len(worker) == 0
        parent = Tracer(enabled=True)
        parent.ingest(shipped)
        (record,) = parent.spans()
        assert record["trace"] == 5 and record["parent"] == 9


class TestDisabledPath:
    def test_disabled_tracer_hands_out_the_noop_singleton(self):
        tracer = Tracer()
        span = tracer.span("anything", parent=(1, 2))
        assert span is NOOP_SPAN
        assert tracer.span("more") is NOOP_SPAN  # identity: no allocation
        with span as inner:
            assert inner.set(a=1).event("x") is inner
        assert len(tracer) == 0
        assert tracer.current_context() is None
        tracer.record_span("phase", 0.0, 1.0)
        tracer.event("ignored")
        tracer.ingest([{"type": "span"}])
        assert len(tracer) == 0

    def test_disabled_session_serves_without_spans(self, two_models):
        batch = [
            Query.delivery(packet, dest)
            for dest, model in two_models.items()
            for packet in model.ingress_packets
        ][:6]
        with AnalysisSession(models=two_models.values()) as session:
            result = session.query_batch(batch)
            assert len(result) == len(batch)
            summary = session.stats()["telemetry"]
            assert summary["tracing"] is False
            assert summary["spans"] == 0


class TestSampling:
    def test_deterministic_one_in_n_roots(self):
        tracer = Tracer(enabled=True, sample=0.5)
        decisions = []
        for _ in range(6):
            with tracer.span("root") as span:
                decisions.append(span.recording)
        assert decisions == [True, False, True, False, True, False]
        assert len(tracer) == 3

    def test_unsampled_root_still_flows_context(self):
        tracer = Tracer(enabled=True, sample=0.5)
        with tracer.span("sampled"):
            pass
        with tracer.span("unsampled") as root:
            assert root.recording is False
            assert root is not NOOP_SPAN  # real span: context still flows
            with tracer.span("child") as child:
                assert child.recording is False
                assert child.trace_id == root.trace_id
            tracer.record_span("phase", 0.0, 1.0)  # dropped: unsampled parent
        assert [r["name"] for r in tracer.spans()] == ["sampled"]

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="sample"):
            Tracer(enabled=True, sample=0.0)
        with pytest.raises(ValueError, match="sample"):
            Tracer(enabled=True, sample=1.5)
        with pytest.raises(ValueError, match="max_spans"):
            Tracer(enabled=True, max_spans=0)

    def test_record_span_without_any_parent_is_dropped(self):
        tracer = Tracer(enabled=True)
        tracer.record_span("phase:solve", 0.0, 1.0)
        assert len(tracer) == 0  # orphan phases outside a trace stay out


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
class TestExporters:
    def _traced(self):
        tracer = Tracer(enabled=True)
        with tracer.span("request", queries=2) as req:
            req.event("admitted", kind="delivery")
            with tracer.span("shard"):
                pass
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._traced()
        trace = tracer.chrome_trace()
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"request", "shard"}
        assert [e["name"] for e in instants] == ["admitted"]
        for event in complete:
            assert event["dur"] >= 0.0
            assert event["ts"] > 1e15  # epoch µs: parent/worker rows align
            int(event["args"]["span"], 16)
        (request,) = [e for e in complete if e["name"] == "request"]
        assert request["args"]["queries"] == 2
        assert request["args"]["parent"] is None

    def test_export_chrome_and_jsonl_files(self, tmp_path):
        tracer = self._traced()
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert tracer.export_chrome(str(chrome)) == 3  # 2 spans + 1 instant
        assert tracer.export_jsonl(str(jsonl)) == 2
        payload = json.loads(chrome.read_text())
        assert len(payload["traceEvents"]) == 3
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert {line["name"] for line in lines} == {"request", "shard"}

    def test_span_tree_groups_by_parent(self):
        tracer = self._traced()
        records = tracer.spans()
        tree = span_tree(records)
        (root,) = tree[None]
        assert root["name"] == "request"
        assert [r["name"] for r in tree[root["span"]]] == ["shard"]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_gauge_exposition(self):
        registry = MetricsRegistry()
        served = registry.counter("repro_served_total", "Queries served")
        served.inc()
        served.inc(4)
        depth = registry.gauge("repro_depth", "Queue depth")
        depth.set(7)
        depth.dec(2)
        text = registry.to_prometheus()
        assert "# HELP repro_served_total Queries served" in text
        assert "# TYPE repro_served_total counter" in text
        assert "repro_served_total 5" in text
        assert "repro_depth 5" in text
        assert text.endswith("\n")

    def test_labelled_series(self):
        registry = MetricsRegistry()
        failures = registry.counter("repro_failures", "", labelnames=("kind",))
        failures.labels(kind="crash").inc()
        failures.labels(kind="crash").inc()
        failures.labels(kind="timeout").inc()
        text = registry.to_prometheus()
        assert 'repro_failures{kind="crash"} 2' in text
        assert 'repro_failures{kind="timeout"} 1' in text
        with pytest.raises(ValueError, match="takes labels"):
            failures.labels(mode="crash")
        with pytest.raises(ValueError, match="needs labels"):
            failures.inc()

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        latency = registry.histogram(
            "repro_latency_seconds", "Latency", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            latency.observe(value)
        text = registry.to_prometheus()
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 3' in text
        assert 'repro_latency_seconds_bucket{le="10"} 4' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_latency_seconds_count 5" in text
        assert "repro_latency_seconds_sum 56.05" in text

    def test_boundary_lands_in_its_bucket(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_h", "", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1" is inclusive, Prometheus-style
        assert 'repro_h_bucket{le="1"} 1' in registry.to_prometheus()

    def test_idempotent_registration_and_kind_mismatch(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_thing", "help")
        again = registry.counter("repro_thing")
        assert first is again
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_thing")


# ---------------------------------------------------------------------------
# Stopwatch listener → phase spans
# ---------------------------------------------------------------------------
class TestPhaseListener:
    def test_stopwatch_invokes_listener(self):
        calls: list[tuple[str, float]] = []
        watch = Stopwatch(listener=lambda name, elapsed: calls.append((name, elapsed)))
        with watch.measure("solve"):
            pass
        with watch.measure("solve"):
            pass
        assert [name for name, _ in calls] == ["solve", "solve"]
        assert all(elapsed >= 0.0 for _, elapsed in calls)
        assert watch.sections["solve"] >= 0.0

    def test_phase_listener_parents_under_the_current_span(self):
        tracer = Tracer(enabled=True)
        listen = tracer.phase_listener()
        with tracer.span("lease") as lease:
            listen("factorize", 0.25)
        phase, outer = tracer.spans()
        assert phase["name"] == "phase:factorize"
        assert phase["parent"] == lease.span_id
        assert phase["end"] - phase["start"] == pytest.approx(0.25, abs=0.01)
        assert outer["name"] == "lease"


# ---------------------------------------------------------------------------
# Telemetry bundle
# ---------------------------------------------------------------------------
class TestTelemetryBundle:
    def test_coerce(self):
        default = Telemetry.coerce(None)
        assert default.tracing is False
        assert Telemetry.coerce(False).tracing is False
        assert Telemetry.coerce(True).tracing is True
        bundle = Telemetry(tracing=True, sample=0.5)
        assert Telemetry.coerce(bundle) is bundle
        with pytest.raises(TypeError):
            Telemetry.coerce("on")

    def test_summary(self):
        bundle = Telemetry(tracing=True)
        with bundle.tracer.span("x"):
            pass
        assert bundle.summary() == {
            "tracing": True,
            "sample": 1.0,
            "spans": 1,
            "dropped_spans": 0,
        }


# ---------------------------------------------------------------------------
# Session integration: thread mode
# ---------------------------------------------------------------------------
class TestThreadModeTracing:
    def test_batch_yields_one_tree_with_phases(self, two_models):
        batch = [
            Query.delivery(packet, dest)
            for dest, model in two_models.items()
            for packet in model.ingress_packets
        ]
        with AnalysisSession(
            models=two_models.values(), workers=2, telemetry=True
        ) as session:
            result = session.query_batch(batch)
            assert len(result) == len(batch)
            records = session.telemetry.tracer.spans()
        root, by_id = assert_single_tree(records)
        assert root["name"] == "request"
        names = {record["name"] for record in records}
        assert {"request", "shard", "lease"} <= names
        assert any(name.startswith("phase:") for name in names)
        # ≥ 4 levels: request → shard → lease → phase:*.
        phases = [r for r in records if r["name"].startswith("phase:")]
        assert max(depth_of(r, by_id) for r in phases) >= 3
        for phase in phases:
            chain = [a["name"] for a in ancestors(phase, by_id)]
            assert chain[0] == "lease" and chain[-1] == "request"

    def test_spans_per_pass_are_pinned(self, all_models, all_pairs):
        """Instrumentation creep shows as a count, not as a clock.  A traced
        pass of the 112-pair batch records one request span and, per
        destination group, a shard, a lease and four backend phases: 49
        spans for 112 queries once plans are compiled, and one compile
        phase per group more on the first pass.  Tracing off records none."""

        def spans_per_pass(telemetry):
            with AnalysisSession(
                models=all_models.values(), workers=4, telemetry=telemetry
            ) as session:
                passes = []
                for _ in range(2):
                    session.query_batch(all_pairs)
                    passes.append(Counter(r["name"] for r in session.telemetry.tracer.take()))
                    session.clear_cache(keep_plans=True)
                return passes

        first, steady = spans_per_pass(Telemetry(tracing=True))
        groups = len(all_models)
        phases = ("assemble", "factorize", "solve", "query")
        per_group = ["shard", "lease", *(f"phase:{name}" for name in phases)]
        assert steady == Counter({"request": 1, **dict.fromkeys(per_group, groups)})
        assert sum(steady.values()) == 49
        assert first == steady + Counter({"phase:compile": groups})
        assert spans_per_pass(None) == [Counter(), Counter()]

    def test_cached_pass_still_traces_request_without_leases(self, two_models):
        model = next(iter(two_models.values()))
        batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]
        with AnalysisSession(model, telemetry=True) as session:
            session.query_batch(batch)
            session.telemetry.tracer.take()  # drop the warm pass
            result = session.query_batch(batch)
            assert result.cache_hits == len(batch)
            records = session.telemetry.tracer.spans()
        names = [record["name"] for record in records]
        assert "request" in names and "shard" in names
        assert "lease" not in names  # fully cached shards never lease

    def test_metrics_text_reflects_serving(self, two_models):
        model = next(iter(two_models.values()))
        batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]
        with AnalysisSession(model) as session:
            session.query_batch(batch)
            session.query_batch(batch)
            text = session.metrics_text()
        assert "repro_requests_total 2" in text
        assert f"repro_queries_total {2 * len(batch)}" in text
        assert f"repro_cache_hits_total {len(batch)}" in text
        assert "repro_request_latency_seconds_count 2" in text
        assert 'repro_backend_phase_seconds{phase="solve"}' in text
        assert "repro_pool_size 1" in text

    def test_sampled_session_traces_a_subset(self, two_models):
        model = next(iter(two_models.values()))
        batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]
        with AnalysisSession(
            model, telemetry=Telemetry(tracing=True, sample=0.5)
        ) as session:
            for _ in range(4):
                session.query_batch(batch)
                session.clear_cache()
            records = session.telemetry.tracer.spans()
        requests = [r for r in records if r["name"] == "request"]
        assert len(requests) == 2  # every 2nd root records
        traces = {r["trace"] for r in records}
        assert len(traces) == 2  # two recorded trees, nothing orphaned


# ---------------------------------------------------------------------------
# The acceptance criterion: one trace tree across the process boundary
# ---------------------------------------------------------------------------
class TestCrossProcessTrace:
    def test_traced_batch_on_a_process_pool_is_one_tree(
        self, all_models, all_pairs, tmp_path
    ):
        """The 112-pair FatTree k=4 batch on a 2-worker process pool yields
        a single trace tree with ≥4 span levels, whose worker-side solver
        spans (pids ≠ parent) nest under the correct shard spans."""
        with AnalysisSession(
            models=all_models.values(),
            workers=2,
            pool_size=2,
            pool_mode="process",
            telemetry=True,
        ) as session:
            result = session.query_batch(all_pairs)
            assert len(result) == 112
            records = session.telemetry.tracer.spans()
            trace_path = tmp_path / "trace.json"
            exported = session.telemetry.tracer.export_chrome(str(trace_path))

        root, by_id = assert_single_tree(records)
        assert root["name"] == "request"
        parent_pid = os.getpid()

        worker_spans = [r for r in records if r["name"] == "worker:query"]
        assert worker_spans, "no worker-side spans shipped back"
        worker_pids = {r["pid"] for r in worker_spans}
        assert parent_pid not in worker_pids
        assert len(worker_pids) >= 1

        # Every worker span re-parents into the caller's lease → shard →
        # request chain, under the shard that owns its destination.
        for span in worker_spans:
            chain = [a["name"] for a in ancestors(span, by_id)]
            assert chain == ["lease", "shard", "request"]
        shard_by_id = {r["span"]: r for r in records if r["name"] == "shard"}
        for span in worker_spans:
            lease = by_id[span["parent"]]
            shard = shard_by_id[lease["parent"]]
            assert span["attrs"]["packets"] == shard["attrs"]["queries"]

        # Solver phases recorded *inside* the worker process nest under
        # the worker span: ≥ 4 levels end to end.
        phases = [
            r
            for r in records
            if r["name"].startswith("phase:") and r["pid"] in worker_pids
        ]
        assert any(r["name"] == "phase:solve" for r in phases)
        for phase in phases:
            assert by_id[phase["parent"]]["name"] == "worker:query"
            assert depth_of(phase, by_id) == 4

        # Parent-side spans all carry the parent pid; the exported file
        # carries every record.
        assert root["pid"] == parent_pid
        assert exported >= len(records)
        payload = json.loads(trace_path.read_text())
        assert len(payload["traceEvents"]) == exported

    @pytest.mark.chaos
    def test_trace_survives_mid_batch_sigkill(self, all_models, all_pairs):
        """A SIGKILLed worker fails the batch at its first lease, after
        other groups were served: the trace is still one tree, the
        failed lease carries the error, and its shard the replica's death."""
        with AnalysisSession(
            models=all_models.values(),
            workers=1,
            pool_size=2,
            pool_mode="process",
            telemetry=True,
        ) as session:
            for dest in all_models:
                session.warm(dest, solve=False)
            session.telemetry.tracer.take()  # warmup spans are not the test
            os.kill(session.pool.worker_id(1), signal.SIGKILL)
            process = session.pool.replicas[1].backend.transport.process
            assert wait_until(lambda: not process.is_alive(), timeout=10.0)
            with pytest.raises(ReplicaFailure) as excinfo:
                session.query_batch(all_pairs)
            assert excinfo.value.replica == 1
            records = session.telemetry.tracer.spans()

        root, by_id = assert_single_tree(records)
        assert root["name"] == "request"
        assert "ReplicaFailure" in root["attrs"]["error"]
        (failed,) = [r for r in records if r["name"] == "lease" and "error" in r["attrs"]]
        assert failed["attrs"]["replica"] == 1
        shard = by_id[failed["parent"]]
        assert [event[0] for event in shard["events"]] == ["replica-dead"]
        # The groups served before the failure keep their worker parentage.
        worker_spans = [r for r in records if r["name"] == "worker:query"]
        assert worker_spans
        for span in worker_spans:
            chain = [a["name"] for a in ancestors(span, by_id)]
            assert chain == ["lease", "shard", "request"]


# ---------------------------------------------------------------------------
# Streaming integration: coalescer window spans + the metrics op
# ---------------------------------------------------------------------------
class TestStreamingTelemetry:
    def test_traced_streaming_request_roots_under_the_window(self, two_models):
        model = next(iter(two_models.values()))
        queries = [
            {"kind": "delivery", "ingress": [p["sw"], p["pt"]], "dest": model.dest}
            for p in model.ingress_packets[:4]
        ]

        async def run(session):
            async with QueryServer(session, window=0.1) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                replies = await asyncio.gather(
                    *[conn.request(query) for query in queries]
                )
                scrape = await conn.request({"op": "metrics"})
                await conn.aclose()
                return replies, scrape

        with AnalysisSession(model, telemetry=True) as session:
            replies, scrape = asyncio.run(run(session))
            records = session.telemetry.tracer.spans()

        assert all("error" not in reply for reply in replies)
        root, by_id = assert_single_tree(records)
        assert root["name"] == "coalesce-window"
        event_names = [event[0] for event in root["events"]]
        assert event_names.count("admitted") == len(queries)
        assert "dispatch" in event_names
        assert root["attrs"]["dispatched"] == len(queries)
        requests = [r for r in records if r["name"] == "request"]
        assert len(requests) == 1  # one coalesced batch, one request span
        assert requests[0]["parent"] == root["span"]
        # ≥ 4 levels: coalesce-window → request → shard → lease.
        leases = [r for r in records if r["name"] == "lease"]
        assert leases and all(depth_of(r, by_id) == 3 for r in leases)

        # The metrics op answers a Prometheus scrape over the socket.
        text = scrape["metrics"]
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 1" in text
        assert "repro_coalescer_depth 0" in text

    def test_cli_trace_out_and_metrics(self, tmp_path, capsys):
        from repro.service.cli import main as service_main

        trace_out = tmp_path / "trace.json"
        code = service_main(
            [
                "--topology",
                "fattree:4",
                "--scheme",
                "ecmp",
                "--dest",
                "1",
                "--all-pairs",
                "--trace-out",
                str(trace_out),
                "--metrics",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "trace written to" in printed
        assert "repro_requests_total 1" in printed
        payload = json.loads(trace_out.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"request", "shard", "lease"} <= names

    def test_cli_rejects_bad_sample(self):
        from repro.service.cli import main as service_main

        with pytest.raises(SystemExit, match="trace-sample"):
            service_main(
                [
                    "--topology",
                    "fattree:4",
                    "--scheme",
                    "ecmp",
                    "--dest",
                    "1",
                    "--all-pairs",
                    "--trace-out",
                    "x.json",
                    "--trace-sample",
                    "2.0",
                ]
            )
