"""Streaming server — cross-client coalescing against per-query serving.

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
pool → solve pipeline.  Asserted are a mean coalesced batch size
**> 1** (the direct evidence of cross-client coalescing) and identical
answers.  Throughput and tail latency are ``bench/``'s
``stream-steady``, gated end to end.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.service import AnalysisSession, Query
from repro.service.server import QueryServer, StreamClient
from repro.topology import edge_switches, fat_tree

#: Destinations swept (14 ingress pairs each on the k=4 FatTree -> 112).
N_DESTS = 8
#: Concurrent open-loop clients the load is spread across.
N_CLIENTS = 8
#: Times each client replays its share of the workload.
REPEATS = 3
#: Admission window of the coalesced configuration, in seconds.
WINDOW = 0.004

MEASURED: dict[str, object] = {}


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
        session.query_batch(batch)  # warm pass: compile + first solve
        yield session, batch


async def _open_loop(port: int, batch: list[Query], repeats: int) -> dict[str, object]:
    """Burst the workload from ``N_CLIENTS`` clients; gather every reply.

    Open loop: every client writes all of its requests without waiting
    for replies (send rate is not gated by service rate), then awaits
    them all.
    """

    async def client(idx: int):
        conn = await StreamClient.connect("127.0.0.1", port)
        share = batch[idx::N_CLIENTS]
        sent: list[asyncio.Future] = []
        for _ in range(repeats):
            for query in share:
                message = {
                    "kind": query.kind,
                    "ingress": [query.ingress["sw"], query.ingress["pt"]],
                    "dest": query.dest,
                }
                sent.append(await conn.send(message))
        batched: list[int] = []
        values: list[float] = []
        for future in sent:
            reply = await future
            assert "error" not in reply, reply
            batched.append(reply["batched"])
            values.append(reply["value"])
        await conn.aclose()
        return batched, values

    outcomes = await asyncio.gather(*[client(i) for i in range(N_CLIENTS)])
    return {
        "queries": sum(len(values) for _, values in outcomes),
        "batched": [b for batched, _ in outcomes for b in batched],
        "values": [v for _, values in outcomes for v in values],
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


def test_streaming_open_loop(workload):
    """Serve both configurations over the identical burst workload."""
    session, batch = workload
    nobatch = _serve_and_load(session, batch, 0.0)
    coalesced = _serve_and_load(session, batch, WINDOW)
    MEASURED["nobatch"] = nobatch
    MEASURED["coalesced"] = coalesced
    # Every query of every repeat was answered, in both configurations.
    expected = len(batch) * REPEATS
    assert nobatch["queries"] == expected
    assert coalesced["queries"] == expected
    # window=0 really disabled coalescing: every dispatch was a batch of 1.
    assert nobatch["stats"]["batch_mean"] == pytest.approx(1.0)
    # The two configurations answered with identical values.
    assert coalesced["values"] == pytest.approx(nobatch["values"], abs=1e-12)
    assert all(0.0 <= value <= 1.0 for value in coalesced["values"])


def test_streaming_coalesce_speedup():
    """What the admission window is worth under load: coalescing, not a clock."""
    coalesced = MEASURED.get("coalesced")
    assert coalesced, "the open-loop load did not run"
    batch_mean = coalesced["stats"]["batch_mean"]
    assert batch_mean > 1.0, (
        f"mean coalesced batch size {batch_mean:.2f} shows no cross-client "
        "coalescing despite 8 concurrent clients in one admission window"
    )


def test_report_server():
    """Both configurations accounted for every query they admitted."""
    for label in ("nobatch", "coalesced"):
        stats = MEASURED[label]["stats"]
        assert stats["answered"] == stats["submitted"] == MEASURED[label]["queries"]
        assert stats["coalesced_queries"] == stats["submitted"]
