#!/usr/bin/env python3
"""End-to-end span tracing across the process boundary.

Opens a :class:`repro.service.AnalysisSession` with tracing enabled
(``telemetry=Telemetry(tracing=True)``) over a FatTree running ECMP,
serves the all-pairs delivery batch on a two-worker **process** pool,
then:

1. prints the collected span tree — one ``request`` root per batch,
   with ``shard -> lease -> worker:query -> phase:*`` children whose
   worker spans carry the *worker process* pids;
2. writes the trace as Chrome trace event JSON (open it in
   https://ui.perfetto.dev or ``chrome://tracing``);
3. scrapes the session's metrics registry in Prometheus text format.

Equivalent CLI::

    python -m repro.service --topology fattree:4 --scheme ecmp \\
        --all-pairs --dest 1 --pool-size 2 --pool-mode process \\
        --trace-out trace.json --metrics

Run with::

    python examples/tracing_demo.py [trace.json]
"""

from __future__ import annotations

import os
import sys

from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.service import AnalysisSession, Query, Telemetry, span_tree
from repro.topology import edge_switches, fat_tree


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "trace.json"
    topo = fat_tree(4)

    def factory(dest: int):
        return build_model(topo, routing=ecmp_policy(topo, dest), dest=dest)

    dests = edge_switches(topo)[:3]
    batch = [
        Query.delivery((sw, pt), dest)
        for dest in dests
        for sw, pt in topo.ingress_locations(exclude=[dest])
    ]

    telemetry = Telemetry(tracing=True)  # off by default; every root records
    with AnalysisSession(
        model_factory=factory,
        workers=4,
        pool_size=2,
        pool_mode="process",
        telemetry=telemetry,
    ) as session:
        print(f"serving {len(batch)} delivery queries with tracing on ...")
        results = session.query_batch(batch)
        print(
            f"  {results.seconds:.3f}s ({results.queries_per_second:.0f} q/s, "
            f"{len(results.shards)} shards)"
        )

        # 1. Walk the span tree.  Worker spans were recorded inside the
        # worker processes, shipped back in the reply stats, and adopted
        # by the parent tracer with their parentage intact — one tree.
        records = telemetry.tracer.spans()
        tree = span_tree(records)

        def show(record: dict, depth: int) -> None:
            ms = (record["end"] - record["start"]) * 1e3
            print(f"  {'  ' * depth}{record['name']:<14} {ms:8.2f} ms  pid={record['pid']}")
            for child in tree.get(record["span"], ()):
                show(child, depth + 1)

        print(f"span tree ({len(records)} spans, parent pid {os.getpid()}):")
        for root in tree.get(None, ()):
            show(root, 1)

        # 2. Export for Perfetto / chrome://tracing.
        events = telemetry.tracer.export_chrome(out)
        print(f"wrote {events} trace events to {out}")

        # 3. Scrape the metrics registry (the streaming server exposes the
        # same text through its `metrics` op).
        scrape = session.metrics_text()
        wanted = (
            "repro_requests_total",
            "repro_queries_total",
            "repro_request_latency_seconds_count",
        )
        print("metrics scrape (excerpt):")
        for line in scrape.splitlines():
            if line.startswith(wanted):
                print(f"  {line}")


if __name__ == "__main__":
    main()
