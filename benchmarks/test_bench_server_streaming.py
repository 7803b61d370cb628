"""Streaming server throughput — cross-client coalescing vs per-query serving.

The claim under test is the streaming analogue of the batch story: the
asyncio front end (:mod:`repro.service.server`) must recover the batched
serving advantage for traffic that arrives as *independent single
queries from many concurrent clients*.  An open-loop load of
``N_CLIENTS`` asyncio clients bursts the full FatTree k=4 all-pairs
delivery workload (8 destinations x 14 ingress locations = 112 pairs,
repeated ``REPEATS`` times) at one server twice:

* **coalesced** — the admission window on (a few ms): queries arriving
  within one window, across all clients, dispatch as one multi-RHS
  batch;
* **per-query** — ``window=0``: every query dispatches immediately as a
  batch of one, which is what serving without the admission layer
  looks like.

Both configurations run over one warmed session with the result cache
*disabled*, so every streamed query travels the full session → replica
pool → solve pipeline and the measured ratio is about batch shape, not
cache hits.  The throughput ratio is recorded; what is asserted is a
mean coalesced batch size **> 1** (the direct evidence of cross-client
coalescing) and identical answers.

Recorded in ``BENCH_server.json`` and gated in CI against
``benchmarks/baselines/BENCH_server.baseline.json``: ``server_qps`` and
``coalesce_batch_mean`` as higher-is-better floors, and the open-loop
``p99_ms`` tail latency as a *lower-is-better* ceiling (the latency SLO;
``p50_ms`` rides along unGated for trend tracking).
"""

from __future__ import annotations

import asyncio
import gc
import time
from contextlib import contextmanager

import pytest

from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.service import AnalysisSession, Query
from repro.service.server import QueryServer, StreamClient
from repro.topology import edge_switches, fat_tree

from bench_utils import print_table, record, scale

#: Destinations swept (14 ingress pairs each on the k=4 FatTree -> 112).
N_DESTS = min(8, 6 + 2 * scale())
#: Concurrent open-loop clients the load is spread across.
N_CLIENTS = 8
#: Times each client replays its share of the workload.
REPEATS = 3
#: Admission window of the coalesced configuration, in seconds.
WINDOW = 0.004

RESULTS: list[list[object]] = []
MEASURED: dict[str, object] = {}


@contextmanager
def _quiesced_gc():
    """Collect, then pause the GC for a measured region (both configs get it)."""
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
    """One warmed, cache-disabled session plus the 112-pair query list."""
    topo = fat_tree(4)

    def build(dest: int):
        return build_model(topo, routing=ecmp_policy(topo, dest), dest=dest)

    dests = edge_switches(topo)[:N_DESTS]
    models = {dest: build(dest) for dest in dests}
    batch = [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]
    assert len(batch) >= 100, "the acceptance workload must exceed 100 pairs"
    with AnalysisSession(
        models=models.values(),
        workers=4,
        cache=False,
    ) as session:
        session.query_batch(batch)  # untimed warm pass: compile + first solve
        yield session, batch


async def _open_loop(port: int, batch: list[Query], repeats: int) -> dict[str, object]:
    """Burst the workload from ``N_CLIENTS`` clients; gather per-query latency.

    Open loop: every client writes all of its requests at t0 without
    waiting for replies (send rate is not gated by service rate), then
    awaits them all.  Latency is measured per query from its send to the
    arrival of its correlated reply.
    """

    async def client(idx: int):
        conn = await StreamClient.connect("127.0.0.1", port)
        share = batch[idx::N_CLIENTS]
        sent: list[tuple[float, asyncio.Future]] = []
        for _ in range(repeats):
            for query in share:
                message = {
                    "kind": query.kind,
                    "ingress": [query.ingress["sw"], query.ingress["pt"]],
                    "dest": query.dest,
                }
                sent.append((time.perf_counter(), await conn.send(message)))
        latencies: list[float] = []
        batched: list[int] = []
        values: list[float] = []
        for t0, future in sent:
            reply = await future
            latencies.append(time.perf_counter() - t0)
            assert "error" not in reply, reply
            batched.append(reply["batched"])
            values.append(reply["value"])
        await conn.aclose()
        return latencies, batched, values

    start = time.perf_counter()
    outcomes = await asyncio.gather(*[client(i) for i in range(N_CLIENTS)])
    elapsed = time.perf_counter() - start
    latencies = [lat for late, _, _ in outcomes for lat in late]
    batched = [b for _, bat, _ in outcomes for b in bat]
    queries = sum(len(late) for late, _, _ in outcomes)
    return {
        "elapsed": elapsed,
        "queries": queries,
        "qps": queries / elapsed,
        "latencies": latencies,
        "batched": batched,
        "values": [v for _, _, vals in outcomes for v in vals],
    }


def _serve_and_load(session, batch, window: float) -> dict[str, object]:
    """Run one server configuration and drive the open-loop load at it.

    Each configuration starts from the identical warm-plans/cold-solver
    state (``clear_cache(keep_plans=True)``): compiled plans are kept,
    factorizations and solution rows are dropped.  The per-query
    configuration therefore pays one single-RHS solve per distinct query
    where the coalesced configuration pays one *multi-RHS* solve per
    destination — the batch-shaped advantage the admission window exists
    to recover, not a cache artifact.
    """
    session.clear_cache(keep_plans=True)

    async def run():
        server = QueryServer(session, window=window, max_batch=256, max_pending=4096)
        await server.start()
        try:
            outcome = await _open_loop(server.port, batch, REPEATS)
            outcome["stats"] = server.coalescer.stats()
            return outcome
        finally:
            await server.stop()

    return asyncio.run(run())


def _percentile(values: list[float], fraction: float) -> float:
    ranked = sorted(values)
    index = min(len(ranked) - 1, max(0, round(fraction * (len(ranked) - 1))))
    return ranked[index]


def test_streaming_open_loop(benchmark, workload):
    """Measure both configurations over the identical burst workload."""
    session, batch = workload

    def both():
        with _quiesced_gc():
            return (
                _serve_and_load(session, batch, 0.0),
                _serve_and_load(session, batch, WINDOW),
            )

    nobatch, coalesced = benchmark.pedantic(both, rounds=1, iterations=1)
    MEASURED["nobatch"] = nobatch
    MEASURED["coalesced"] = coalesced

    for label, outcome in (("window=0", nobatch), (f"window={WINDOW * 1000:g}ms", coalesced)):
        stats = outcome["stats"]
        RESULTS.append(
            [
                label,
                outcome["queries"],
                f"{outcome['elapsed']:.2f}s",
                f"{outcome['qps']:.1f}",
                f"{stats['batch_mean']:.1f}",
                f"{_percentile(outcome['latencies'], 0.50) * 1000:.1f}",
                f"{_percentile(outcome['latencies'], 0.99) * 1000:.1f}",
            ]
        )
    # Every query of every repeat was answered, in both configurations.
    expected = len(batch) * REPEATS
    assert nobatch["queries"] == expected
    assert coalesced["queries"] == expected
    # window=0 really disabled coalescing: every dispatch was a batch of 1.
    assert nobatch["stats"]["batch_mean"] == pytest.approx(1.0)
    # The two configurations answered with identical values.
    assert coalesced["values"] == pytest.approx(nobatch["values"], abs=1e-12)
    assert all(0.0 <= value <= 1.0 for value in coalesced["values"])


def test_streaming_coalesce_speedup(benchmark):
    """Records what the admission window is worth under load; asserts coalescing, not a clock."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    nobatch = MEASURED.get("nobatch")
    coalesced = MEASURED.get("coalesced")
    assert nobatch and coalesced, "the open-loop measurement did not run"

    speedup = coalesced["qps"] / nobatch["qps"]
    batch_mean = coalesced["stats"]["batch_mean"]
    p50_ms = _percentile(coalesced["latencies"], 0.50) * 1000
    p99_ms = _percentile(coalesced["latencies"], 0.99) * 1000
    record(
        "server",
        "Streaming server — cross-client coalescing vs per-query (FatTree k=4, "
        f"{N_CLIENTS} open-loop clients)",
        ["config", "queries", "time", "q/s", "mean batch", "p50 ms", "p99 ms"],
        RESULTS,
        metrics={
            "server_qps": coalesced["qps"],
            "server_qps_nobatch": nobatch["qps"],
            "server_coalesce_speedup": speedup,
            "coalesce_batch_mean": batch_mean,
            "p50_ms": p50_ms,
            "p99_ms": p99_ms,
        },
    )
    assert batch_mean > 1.0, (
        f"mean coalesced batch size {batch_mean:.2f} shows no cross-client "
        "coalescing despite 8 concurrent clients in one admission window"
    )


def test_report_server(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "Streaming server — cross-client coalescing vs per-query (FatTree k=4, "
        f"{N_CLIENTS} open-loop clients)",
        ["config", "queries", "time", "q/s", "mean batch", "p50 ms", "p99 ms"],
        RESULTS,
        fig="server",
    )
    assert RESULTS
