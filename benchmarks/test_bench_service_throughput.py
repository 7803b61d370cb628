"""Service throughput — sharded sessions vs naive per-call analysis.

The claim under test is the service-layer analogue of the paper's
"compile once, query many times" story: a persistent
:class:`~repro.service.AnalysisSession` answering a 100+
(ingress, destination)-pair delivery batch on a FatTree k=4 — one
backend instance, one worker pool, batched per-destination solves —
against naive per-call ``analysis.*`` invocations (each of which sets up
a fresh engine, the pre-service behaviour).

The absolute queries/sec of both paths are recorded in
``BENCH_service.json``; no ratio between them is gated (a ratio against
in-repo reference code moves whenever the shared code gets faster).  No
test in this module asserts a clock: the tests assert answers, shapes
and deterministic counters, and record seconds.  A second pass over the
same batch is also recorded: it is served from the session's
canonical-FDD-keyed result cache and demonstrates steady-state serving
throughput.

Process-hosted replicas (spec-shipped worker processes, each hosting a
full backend — see :mod:`repro.service.procpool`) are recorded as
absolute solver-pass q/s: a pool of 4 against the in-process session on
the k=4 batch, and process pools of 1 and 4 on the solver-dominated
f10/AB-FatTree-k=6 workload.  Each timed pass re-solves every
destination from its compiled plan (``clear_cache(keep_plans=True)``
drops the replicas' factorizations between passes), so the measurement
isolates the solver path the pool parallelises.  The structural
evidence of parallelism — distinct replicas serving shards whose
wall-clock windows overlap — is asserted unconditionally.

A further claim landed with the telemetry layer: observability must not
cost what it observes.  The same warmed steady-state solver passes are
served once with the default tracing-disabled telemetry and once with
full span tracing on; the extra time is recorded as the
lower-is-better ``telemetry_overhead_us`` metric (µs per query — a
percentage of the pass would grow every time the pass gets shorter) and
gated by CI, so
instrumentation creep on the serving path fails the build instead of
silently taxing every query.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from repro.analysis import delivery_probability
from repro.backends import MatrixBackend
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy, f10_model
from repro.service import AnalysisSession, Query, Telemetry
from repro.topology import ab_fat_tree, edge_switches, fat_tree

from bench_utils import print_table, record, scale

#: Number of destinations swept (each contributes its full ingress set of
#: 14 locations on the k=4 FatTree, so 8 destinations = 112 pairs ≥ 100).
N_DESTS = min(8, 6 + 2 * scale())
#: Sample size for the (slow) naive per-call path; its q/s extrapolates.
NAIVE_SAMPLE = 12
#: Worker count of the pooled (process) configuration under test.
POOL_SIZE = 4
#: Timed solver passes per pool configuration (each re-factorizes).
POOL_PASSES = 3
#: Destinations of the solver-dominated f10/AB-FatTree process-pool workload.
PROC_DESTS = 4

RESULTS: list[list[object]] = []
MEASURED: dict[str, float] = {}


@contextmanager
def _quiesced_gc():
    """Collect, then pause the GC for a measured region (both paths get it).

    When the whole suite runs before this file, hundreds of tests leave
    live objects whose GC passes would dominate the measurement; pausing
    collection for *both* the naive and the session path keeps the
    reported ratio about the engines, not about unrelated garbage.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def workload():
    topo = fat_tree(4)
    failable = downward_failable_ports(topo)

    def build(dest: int):
        return build_model(
            topo,
            routing=ecmp_policy(topo, dest),
            dest=dest,
            failure=independent_failure_program(failable, 1 / 1000),
            failable=failable,
        )

    dests = edge_switches(topo)[:N_DESTS]
    models = {dest: build(dest) for dest in dests}
    batch = [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]
    assert len(batch) >= 100, "the acceptance batch must exceed 100 pairs"
    return models, batch


def test_naive_per_call_baseline(benchmark, workload):
    """Per-call ``analysis.delivery_probability`` with per-call engine setup."""
    models, batch = workload
    # Stride across the batch so the sample spans destinations (each naive
    # call then pays per-call setup for a different model, like real
    # one-off invocations would).
    stride = max(1, len(batch) // NAIVE_SAMPLE)
    sample = batch[::stride][:NAIVE_SAMPLE]
    MEASURED["naive_sample"] = sample  # type: ignore[assignment]

    def naive():
        with _quiesced_gc():
            return [
                delivery_probability(models[query.dest], inputs=[query.ingress])
                for query in sample
            ]

    start = time.perf_counter()
    values = benchmark.pedantic(naive, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    MEASURED["naive_qps"] = len(sample) / elapsed
    MEASURED["naive_values"] = values  # type: ignore[assignment]
    RESULTS.append(
        ["naive per-call", len(sample), f"{elapsed:.2f}s", f"{MEASURED['naive_qps']:.1f}", "-"]
    )
    assert all(0.0 <= value <= 1.0 for value in values)


def test_sharded_session_throughput(benchmark, workload):
    """One session, one backend, one pool: the full batch, then a cached pass."""
    models, batch = workload

    def serve():
        with _quiesced_gc():
            with AnalysisSession(models=models.values()) as session:
                first = session.query_batch(batch)
                second = session.query_batch(batch)
                return first, second

    start = time.perf_counter()
    first, second = benchmark.pedantic(serve, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    MEASURED["session_qps"] = len(batch) / first.seconds
    MEASURED["cached_qps"] = second.queries_per_second
    MEASURED["session_values"] = first  # type: ignore[assignment]
    RESULTS.append(
        [
            "sharded session",
            len(batch),
            f"{first.seconds:.2f}s",
            f"{MEASURED['session_qps']:.1f}",
            f"{len(first.shards)} shards",
        ]
    )
    RESULTS.append(
        [
            "cached repeat",
            len(batch),
            f"{second.seconds:.4f}s",
            f"{MEASURED['cached_qps']:.0f}",
            f"{second.cache_hits} hits",
        ]
    )
    assert second.cache_hits == len(batch)
    assert elapsed >= first.seconds


def test_session_agrees_with_naive():
    """The served values must equal the per-call values within 1e-9."""
    naive_values = MEASURED.get("naive_values")
    sample = MEASURED.get("naive_sample")
    first = MEASURED.get("session_values")
    assert naive_values is not None and first is not None, "measurement tests did not run"
    for query, expected in zip(sample, naive_values):
        assert first.value(query) == pytest.approx(expected, abs=1e-9)


def test_pool_parallel_throughput(benchmark, workload):
    """Process pool of 4 vs the in-process replica: steady-state solver q/s.

    Both sessions are warmed once (plans compiled, first solve done —
    the compile-once cost a persistent service pays at startup), then
    each timed pass re-solves the full 112-pair batch from scratch:
    ``clear_cache(keep_plans=True)`` drops the result cache and every
    replica's factorizations while keeping compiled plans, so every pass
    exercises matrix construction + ``splu`` + batched solves — the work
    the replica pool parallelises — rather than cache lookups.
    """
    models, batch = workload

    def serve(pool_size):
        with AnalysisSession(
            models=models.values(),
            workers=POOL_SIZE,
            pool_size=pool_size,
            pool_mode="thread" if pool_size == 1 else "process",
        ) as session:
            session.query_batch(batch)  # untimed warm pass: compile + solve
            session.clear_cache(keep_plans=True)
            passes = []
            start = time.perf_counter()
            for _ in range(POOL_PASSES):
                passes.append(session.query_batch(batch))
                session.clear_cache(keep_plans=True)
            elapsed = time.perf_counter() - start
            return elapsed, passes

    def both():
        with _quiesced_gc():
            return serve(1), serve(POOL_SIZE)

    (single_time, single_passes), (pooled_time, pooled_passes) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    MEASURED["pool1_qps"] = len(batch) * POOL_PASSES / single_time
    MEASURED["pool4_qps"] = len(batch) * POOL_PASSES / pooled_time
    RESULTS.append(
        [
            "pool=1 solver passes",
            len(batch) * POOL_PASSES,
            f"{single_time:.2f}s",
            f"{MEASURED['pool1_qps']:.1f}",
            f"{POOL_PASSES} passes",
        ]
    )
    pooled_last = pooled_passes[-1]
    replicas_used = {r.replica for r in pooled_last.shards if r.replica >= 0}
    RESULTS.append(
        [
            f"process pool={POOL_SIZE} solver passes",
            len(batch) * POOL_PASSES,
            f"{pooled_time:.2f}s",
            f"{MEASURED['pool4_qps']:.1f}",
            f"{len(replicas_used)} replicas",
        ]
    )
    record(
        "service",
        "Service throughput — sharded session vs naive per-call analysis (FatTree k=4)",
        ["path", "queries", "time", "q/s", "notes"],
        RESULTS,
        metrics={"pool1_qps": MEASURED["pool1_qps"], "pool4_qps": MEASURED["pool4_qps"]},
    )
    # Every pooled pass agrees with the in-process pass per query.
    reference = single_passes[0]
    for result in pooled_passes:
        for query, expected in zip(batch, reference.values):
            assert result.value(query) == pytest.approx(expected, abs=1e-9)
    # Structural parallelism evidence: shards were served by multiple
    # replicas and their wall-clock windows overlap — no shard sat out
    # another replica's solve.
    solved = [report for report in pooled_last.shards if report.replica >= 0]
    assert len({report.replica for report in solved}) > 1
    assert any(a.overlaps(b) for a in solved for b in solved if a.index < b.index)


def test_telemetry_overhead(benchmark, workload):
    """Span tracing must not cost what it observes (and off must be free).

    Two warmed sessions serve the same steady-state solver passes as the
    pool benchmark — one with the default telemetry (tracing disabled:
    the NOOP-span fast path plus per-batch metric increments), one with
    full tracing on (every request records its whole span tree,
    including backend phase spans).  The extra time of the traced
    configuration is recorded per query, as the lower-is-better
    ``telemetry_overhead_us`` metric, and gated by CI against the
    committed baseline, so instrumentation creep can never silently tax
    the serving path.  The *disabled* path's cost shows in every
    recorded q/s (telemetry is always constructed) and in the end-to-end
    workloads of ``bench/``.
    """
    models, batch = workload

    def passes(telemetry):
        with AnalysisSession(
            models=models.values(),
            workers=POOL_SIZE,
            telemetry=telemetry,
        ) as session:
            session.query_batch(batch)  # untimed warm pass: compile + solve
            session.clear_cache(keep_plans=True)
            start = time.perf_counter()
            for _ in range(POOL_PASSES):
                session.query_batch(batch)
                session.clear_cache(keep_plans=True)
            elapsed = time.perf_counter() - start
            return elapsed, len(session.telemetry.tracer)

    def both():
        with _quiesced_gc():
            return passes(None), passes(Telemetry(tracing=True))

    (off_time, off_spans), (on_time, on_spans) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    # The disabled path must buffer nothing; the traced path must have
    # captured every pass (request + shard + lease + phase spans).
    assert off_spans == 0
    assert on_spans >= (POOL_PASSES + 1) * (1 + N_DESTS)
    queries = len(batch) * POOL_PASSES
    off_qps = queries / off_time
    on_qps = queries / on_time
    overhead_pct = max(0.0, (off_qps - on_qps) / off_qps * 100.0)
    overhead_us = max(0.0, (on_time - off_time) / queries * 1e6)
    MEASURED["telemetry_overhead_us"] = overhead_us
    MEASURED["untraced_qps"] = off_qps
    MEASURED["traced_qps"] = on_qps
    RESULTS.append(
        [
            "telemetry off (solver passes)",
            len(batch) * POOL_PASSES,
            f"{off_time:.2f}s",
            f"{off_qps:.1f}",
            "0 spans",
        ]
    )
    RESULTS.append(
        [
            "telemetry traced",
            len(batch) * POOL_PASSES,
            f"{on_time:.2f}s",
            f"{on_qps:.1f}",
            f"+{overhead_us:.1f} us/query ({overhead_pct:.1f}%), {on_spans} spans",
        ]
    )
    record(
        "service",
        "Service throughput — sharded session vs naive per-call analysis (FatTree k=4)",
        ["path", "queries", "time", "q/s", "notes"],
        RESULTS,
        metrics={
            "telemetry_overhead_us": overhead_us,
            "untraced_qps": off_qps,
            "traced_qps": on_qps,
        },
    )


@pytest.fixture(scope="module")
def f10_workload():
    """F10 rerouting on an AB FatTree k=6: the solver-dominated workload.

    F10's failover policies make the per-destination absorption systems
    substantially heavier than plain ECMP, so once plans are compiled the
    per-pass cost is dominated by exactly the phases a replica pool is
    supposed to parallelise: reachable-matrix assembly and the ``splu``
    factorization + batched solves.  One *shared* planner backend is
    handed to every session so each policy's AST is compiled exactly once
    across the measured configurations — the workers rebuild plans from
    manager-independent specs, which keeps the timed passes about the
    solver path, not recompilation.
    """
    topo = ab_fat_tree(6)
    dests = edge_switches(topo)[:PROC_DESTS]
    models = {
        dest: f10_model(
            topo,
            dest,
            scheme="f10_3",
            failure_probability=Fraction(1, 1000),
            max_failures=3,
        )
        for dest in dests
    }
    batch = [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]
    with MatrixBackend() as planner_backend:
        yield models, batch, planner_backend


def _timed_solver_passes(models, batch, backend, pool_mode, pool_size):
    """Warm a session, then time ``POOL_PASSES`` full re-solves of the batch.

    Warmup pre-plans every destination on every replica through the lease
    path (spec rebuilds only — the shared planner backend holds the
    compiled plans) and pre-solves once; each timed pass then re-runs
    matrix assembly + factorization + batched solves from compiled plans
    (``clear_cache(keep_plans=True)`` drops solver state between passes).
    """
    with AnalysisSession(
        models=models.values(),
        backend=backend,
        workers=POOL_SIZE,
        pool_size=pool_size,
        pool_mode=pool_mode,
    ) as session:
        for dest in models:
            session.warm(dest, solve=False)
        session.query_batch(batch)  # untimed: first solve + result cache fill
        session.clear_cache(keep_plans=True)
        passes = []
        start = time.perf_counter()
        for _ in range(POOL_PASSES):
            passes.append(session.query_batch(batch))
            session.clear_cache(keep_plans=True)
        elapsed = time.perf_counter() - start
        worker_reports = (
            session.pool.worker_reports() if pool_mode == "process" else []
        )
        return elapsed, passes, worker_reports


def test_procpool_solver_throughput(benchmark, f10_workload):
    """Process pool of 4 vs process pool of 1 on the f10/AB-FatTree batch.

    Process-hosted replicas run *every* per-pass phase — plan rebuild,
    matrix assembly, ``splu``, batched solves — outside the parent's GIL,
    so on multi-core machines the pool of 4 is not capped by the
    GIL-bound assembly phases.
    """
    models, batch, planner_backend = f10_workload

    def both():
        with _quiesced_gc():
            return (
                _timed_solver_passes(models, batch, planner_backend, "process", 1),
                _timed_solver_passes(
                    models, batch, planner_backend, "process", POOL_SIZE
                ),
            )

    (single, pooled) = benchmark.pedantic(both, rounds=1, iterations=1)
    single_time, single_passes, _ = single
    pooled_time, pooled_passes, worker_reports = pooled
    MEASURED["proc1_qps"] = len(batch) * POOL_PASSES / single_time
    MEASURED["proc4_qps"] = len(batch) * POOL_PASSES / pooled_time
    MEASURED["f10_reference"] = single_passes[0]  # type: ignore[assignment]
    RESULTS.append(
        [
            "f10 process pool=1",
            len(batch) * POOL_PASSES,
            f"{single_time:.2f}s",
            f"{MEASURED['proc1_qps']:.1f}",
            f"{POOL_PASSES} passes",
        ]
    )
    pids = {report.worker for result in pooled_passes for report in result.shards}
    RESULTS.append(
        [
            f"f10 process pool={POOL_SIZE}",
            len(batch) * POOL_PASSES,
            f"{pooled_time:.2f}s",
            f"{MEASURED['proc4_qps']:.1f}",
            f"{len(pids)} workers",
        ]
    )
    # Cross-process evidence: several worker pids served shards, none of
    # them the parent, and the workers never compiled an AST.
    assert len(pids) > 1
    assert os.getpid() not in pids
    assert all(report["ast_compilations"] == 0 for report in worker_reports)
    for result in pooled_passes:
        assert all(report.pool_mode == "process" for report in result.shards)
    # Every pooled pass agrees with the single-replica reference.
    reference = single_passes[0]
    for result in pooled_passes:
        for query, expected in zip(batch, reference.values):
            assert result.value(query) == pytest.approx(expected, abs=1e-9)


def test_chunked_feed_grows_one_chain(benchmark, f10_workload):
    """F10_3 k=6, one destination, fed 1 / 4 / 16 / 51 ingresses per call.

    A loop stage appends to one indexed chain, so a class is explored and
    factorized once however the ingress set arrives; what a smaller call
    size adds is per-call work (the loop-free stages, one small
    factorization per growth step).  Seconds are recorded; asserted are
    the counters and the answers.
    """
    models, _batch, _planner = f10_workload
    model = next(iter(models.values()))
    packets = model.ingress_packets
    backend = MatrixBackend()
    whole = backend.output_distributions(model.policy, packets)
    classes = backend.solver_stats()["assembly_rows"]

    def feeds():
        seconds, answers = {}, {}
        with _quiesced_gc():
            for per_call in (1, 4, 16, len(packets)):
                backend.reset_solutions()
                fed = {}
                start = time.perf_counter()
                for first in range(0, len(packets), per_call):
                    fed.update(
                        backend.output_distributions(model.policy, packets[first:first + per_call])
                    )
                seconds[per_call] = time.perf_counter() - start
                answers[per_call] = (fed, backend.solver_stats())
        return seconds, answers

    seconds, answers = benchmark.pedantic(feeds, rounds=1, iterations=1)
    for feed_number, (per_call, (fed, stats)) in enumerate(answers.items(), start=1):
        # A class is assembled once per feed (the counter is cumulative) ...
        assert stats["assembly_rows"] == (1 + feed_number) * classes
        assert stats["factorizations"] == stats["schur_updates"] + 1
        # ... and every feed answers like the one call.
        for packet in packets:
            assert fed[packet].support() == whole[packet].support()
            assert fed[packet].tv_distance(whole[packet]) <= 1e-12
    # Asked again, a solved space moves no counter.
    before = backend.solver_stats()
    backend.output_distributions(model.policy, packets)
    assert backend.solver_stats() == before
    RESULTS.append(
        [
            "f10 one destination, 1/4/16/51 per call",
            4 * len(packets),
            "/".join(f"{1e3 * value:.1f}" for value in seconds.values()) + " ms",
            f"{len(packets) / seconds[len(packets)]:.1f}",
            f"{classes} classes assembled once per feed",
        ]
    )
    record(
        "service",
        "Service throughput — sharded session vs naive per-call analysis (FatTree k=4)",
        ["path", "queries", "time", "q/s", "notes"],
        RESULTS,
        metrics={f"chunked_feed_{per_call}_s": value for per_call, value in seconds.items()},
    )


def test_procpool_speedup(benchmark):
    """Records the process pools' absolute q/s (pool=1 and pool=4); asserts no clock.

    Their answers are asserted where they are measured; no ratio of the
    two is recorded, since a "neutral" floor on a ratio gated nothing.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    proc1_qps = MEASURED.get("proc1_qps")
    proc4_qps = MEASURED.get("proc4_qps")
    assert proc1_qps and proc4_qps, "process-pool measurement did not run"
    record(
        "service",
        "Service throughput — sharded session vs naive per-call analysis (FatTree k=4)",
        ["path", "queries", "time", "q/s", "notes"],
        RESULTS,
        metrics={"procpool1_qps": proc1_qps, "procpool4_qps": proc4_qps},
    )


def test_service_speedup(benchmark):
    """Records batched-session and naive per-call throughput; asserts no clock."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    naive_qps = MEASURED.get("naive_qps")
    session_qps = MEASURED.get("session_qps")
    assert naive_qps and session_qps, "measurement tests did not run"
    record(
        "service",
        "Service throughput — sharded session vs naive per-call analysis (FatTree k=4)",
        ["path", "queries", "time", "q/s", "notes"],
        RESULTS,
        metrics={
            "session_qps": session_qps,
            "naive_qps": naive_qps,
            "cached_qps": MEASURED.get("cached_qps", 0.0),
        },
    )


def test_report_service(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "Service throughput — sharded session vs naive per-call analysis (FatTree k=4)",
        ["path", "queries", "time", "q/s", "notes"],
        RESULTS,
        fig="service",
    )
    assert RESULTS
