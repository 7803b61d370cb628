#!/usr/bin/env python3
"""Concurrent asyncio clients streaming queries at one coalescing server.

Starts a :class:`repro.service.QueryServer` (the asyncio JSON-lines
front end) over a FatTree running ECMP, then demonstrates the streaming
serving loop end to end:

1. several concurrent clients each stream their own slice of the
   all-pairs delivery workload — queries landing in the same admission
   window are coalesced *across clients* into shared multi-RHS solves
   (watch the ``batched`` field of the replies);
2. a query with a 1 ms deadline inside a long admission window comes
   back as an explicit ``deadline-exceeded`` error, never a silent drop;
3. the ``stats`` control op reports the admission counters (mean
   coalesced batch size, deadline misses, queue depth);
4. the server drains gracefully: every in-flight reply is written before
   connections close.

The same server is reachable from the shell::

    python -m repro.service serve --topology fattree:4 --scheme ecmp \\
        --dest 1 --dest 2 --port 9000 --window-ms 4

Run with::

    python examples/streaming_clients.py [n_clients]
"""

from __future__ import annotations

import asyncio
import sys

from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.service import AnalysisSession, Query, QueryServer, StreamClient
from repro.topology import edge_switches, fat_tree


def wire(query: Query) -> dict:
    return {
        "kind": query.kind,
        "ingress": [query.ingress["sw"], query.ingress["pt"]],
        "dest": query.dest,
    }


async def stream_slice(port: int, name: str, share: list[Query]) -> None:
    """One client: open-loop streaming of its share of the workload."""
    conn = await StreamClient.connect("127.0.0.1", port)
    pending = [await conn.send(wire(query)) for query in share]
    replies = await asyncio.gather(*pending)
    batched = sorted({reply["batched"] for reply in replies})
    print(
        f"  {name}: {len(replies)} answers, "
        f"values {min(r['value'] for r in replies):.4f}.."
        f"{max(r['value'] for r in replies):.4f}, "
        f"coalesced into batches of {batched}"
    )
    await conn.aclose()


async def main() -> None:
    n_clients = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    topo = fat_tree(4)
    dests = edge_switches(topo)[:2]

    def factory(dest: int):
        return build_model(topo, routing=ecmp_policy(topo, dest), dest=dest)

    batch = [
        Query.delivery((sw, pt), dest)
        for dest in dests
        for sw, pt in topo.ingress_locations(exclude=[dest])
    ]

    session = AnalysisSession(model_factory=factory, workers=4)
    server = QueryServer(session, window=0.01, owns_session=True)
    await server.start()
    print(f"server listening on 127.0.0.1:{server.port} (admission window 10 ms)")

    print(f"\n{n_clients} clients streaming {len(batch)} queries concurrently:")
    await asyncio.gather(
        *[
            stream_slice(server.port, f"client {i}", batch[i::n_clients])
            for i in range(n_clients)
        ]
    )

    print("\na 1 ms deadline inside a 200 ms window fails loudly:")
    server.coalescer.window = 0.2
    conn = await StreamClient.connect("127.0.0.1", server.port)
    reply = await conn.request({**wire(batch[0]), "deadline_ms": 1})
    print(f"  -> {reply['error']['code']}: {reply['error']['message']}")

    stats = (await conn.request({"op": "stats"}))["stats"]
    coalescer = stats["coalescer"]
    print(
        f"\nserver stats: {coalescer['answered']} answered in "
        f"{coalescer['batches']} batches (mean {coalescer['batch_mean']:.1f}, "
        f"max {coalescer['batch_max']}), "
        f"{coalescer['deadline_exceeded']} deadline-exceeded"
    )
    await conn.aclose()

    await server.stop()  # drains in-flight replies, then closes the session
    print("server drained and stopped")


if __name__ == "__main__":
    asyncio.run(main())
