#!/usr/bin/env python3
"""Serving query streams from a persistent analysis session.

Opens one :class:`repro.service.AnalysisSession` over a FatTree running
ECMP with link failures, then serves the all-pairs delivery batch (every
(ingress, destination) pair) three ways:

1. one batched absorption solve per destination;
2. the same batch again — answered from the canonical-FDD result cache;
3. a mixed-kind batch (delivery + expected hop count + full output
   distribution), and the session passed to a ``repro.analysis`` entry
   point as its ``backend=``.

Equivalent CLI::

    python -m repro.service --topology fattree:4 --scheme ecmp \\
        --dest 1 --dest 2 --dest 3 --all-pairs --workers 4

Run with::

    python examples/query_service.py [p]
"""

from __future__ import annotations

import sys

from repro.analysis import hop_count_cdf
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import AnalysisSession, Query
from repro.topology import edge_switches, fat_tree

FAILURE_PROBABILITY = 1 / 1000


def main() -> None:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    topo = fat_tree(p)
    failable = downward_failable_ports(topo)

    def factory(dest: int):
        return build_model(
            topo,
            routing=ecmp_policy(topo, dest),
            dest=dest,
            failure=independent_failure_program(failable, FAILURE_PROBABILITY),
            failable=failable,
            count_hops=True,
        )

    dests = edge_switches(topo)[:3]
    batch = [
        Query.delivery((sw, pt), dest)
        for dest in dests
        for sw, pt in topo.ingress_locations(exclude=[dest])
    ]

    with AnalysisSession(model_factory=factory, workers=4) as session:
        print(f"serving {len(batch)} (ingress, destination) delivery queries "
              f"over {len(dests)} destinations ...")
        results = session.query_batch(batch)
        print(f"  cold: {results.seconds:.3f}s "
              f"({results.queries_per_second:.0f} q/s, one solve per destination)")
        for report in results.shards:
            print(f"    dest {report.dest}: {report.queries} queries "
                  f"in {report.seconds:.3f}s")

        again = session.query_batch(batch)
        print(f"  warm: {again.seconds:.4f}s "
              f"({again.cache_hits}/{len(again)} served from cache)")

        worst = min(results, key=lambda r: r.value)
        print(f"  lowest delivery probability: {worst.value:.6f} "
              f"at ingress {dict(worst.query.ingress.as_dict())} -> {worst.query.dest}")

        # Mixed kinds and the session as an analysis backend= share one cache.
        model = session.model_for(dests[0])
        hops = session.query("hops", model.ingress_packets[0], dests[0])
        cdf = hop_count_cdf(model, max_hops=6, backend=session)
        print(f"  expected hops (first ingress -> {dests[0]}): {hops:.3f}")
        print(f"  P[delivered within <=6 hops]: {cdf[6]:.4f}")

        stats = session.stats()
        print(f"  session stats: {stats['queries']} queries, "
              f"{stats['shards']} destination solves, backend={stats['backend']}")

    # Process-hosted replicas: the same session API, but every replica is
    # a worker process fed by manager-independent plan specs, so plan
    # rebuild, matrix assembly and splu overlap across cores.
    with AnalysisSession(
        model_factory=factory,
        workers=4,
        pool_size=2,
        pool_mode="process",
    ) as session:
        results = session.query_batch(batch)
        pids = sorted({report.worker for report in results.shards})
        print(f"process pool: {results.seconds:.3f}s "
              f"({results.queries_per_second:.0f} q/s) across worker pids {pids}")
        for report in session.pool.worker_reports():
            print(f"    worker pid {report['pid']}: {report['plans']} plan(s) "
                  f"adopted from specs, {report['ast_compilations']} AST compiles")


if __name__ == "__main__":
    main()
