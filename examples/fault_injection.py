#!/usr/bin/env python3
"""Self-healing under injected worker crashes: kill → respawn → retry.

Opens a process-pooled :class:`repro.service.AnalysisSession` over a
FatTree running ECMP with link failures, then drives one full
supervision cycle three ways:

1. an armed :class:`repro.service.FaultPlan` (the ``REPRO_FAULTS``
   environment variable) makes worker 1 SIGKILL itself mid-shard — the
   batch still completes, answers intact, and the pool's stats show the
   quarantine, the in-place respawn, and the transparent retry;
2. a raw ``os.kill`` from the outside while a batch is in flight — the
   same healing path, no cooperation from the worker required;
3. exhausted retries — ``kill@all:after=0`` crashes every replica on
   every attempt, so the caller finally sees the typed
   :class:`repro.service.PoolUnavailable` with the worker exit code
   chained onto it.

Equivalent CLI (the batch runner prints a ``supervision:`` line when a
batch survived a failure)::

    REPRO_FAULTS="kill@1:after=0" python -m repro.service \\
        --topology fattree:4 --scheme ecmp --dest 1 --dest 2 \\
        --all-pairs --pool-size 2 --pool-mode process --shard-attempts 3

Run with::

    python examples/fault_injection.py [p]
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import AnalysisSession, FaultPlan, PoolUnavailable, Query
from repro.service.faults import REPRO_FAULTS
from repro.service.pool import HEALTHY
from repro.topology import edge_switches, fat_tree

FAILURE_PROBABILITY = 1 / 1000


def build_workload(p: int):
    topo = fat_tree(p)
    failable = downward_failable_ports(topo)

    def factory(dest: int):
        return build_model(
            topo,
            routing=ecmp_policy(topo, dest),
            dest=dest,
            failure=independent_failure_program(failable, FAILURE_PROBABILITY),
            failable=failable,
        )

    dests = edge_switches(topo)[:3]
    batch = [
        Query.delivery((sw, pt), dest)
        for dest in dests
        for sw, pt in topo.ingress_locations(exclude=[dest])
    ]
    return factory, dests, batch


def open_session(factory):
    return AnalysisSession(
        model_factory=factory,
        workers=4,
        pool_size=2,
        pool_mode="process",
        max_attempts=3,
    )


def print_supervision(session) -> None:
    stats = session.stats()
    pool = stats["pool"]
    print(f"  supervision: {pool['failures']} failure(s), "
          f"{pool['restarts']} restart(s), "
          f"{stats['retried_shards']} shard(s) transparently retried, "
          f"health={pool['health']}")


def main() -> None:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    factory, dests, batch = build_workload(p)

    # 1. A deterministic fault plan: worker 1 SIGKILLs itself on its
    #    first query request.  Workers read REPRO_FAULTS at process
    #    start, so the plan must be in the environment before the pool
    #    spawns them; a respawned worker re-reads the same plan.
    plan = FaultPlan.parse("kill@1:after=0")
    os.environ[REPRO_FAULTS] = plan.spec()
    try:
        with open_session(factory) as session:
            print(f"[1] fault plan {plan.spec()!r}: "
                  f"{len(batch)} queries over {len(dests)} destinations ...")
            results = session.query_batch(batch)
            print(f"  batch completed: {results.seconds:.3f}s, "
                  f"{len(results)} answers, zero caller-visible errors")
            print_supervision(session)
            for report in session.pool.worker_reports():
                if report["health"] != "healthy":  # respawn still in flight
                    print(f"    worker {report['index']}: {report['health']}")
                    continue
                print(f"    worker {report['index']} pid {report['pid']}: "
                      f"{report['plans']} plan(s) adopted, "
                      f"{report['ast_compilations']} AST compiles")
    finally:
        del os.environ[REPRO_FAULTS]

    # 2. An uncooperative crash: SIGKILL a busy worker from outside
    #    while the batch is in flight.  Supervision cannot tell the
    #    difference — same quarantine, same respawn, same retry.
    with open_session(factory) as session:
        for dest in dests:
            session.warm(dest, solve=False)
        print("[2] external SIGKILL against a busy worker ...")
        import threading

        def killer():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                for replica in session.pool.replicas:
                    if replica.busy and replica.health == HEALTHY:
                        os.kill(replica.backend.pid, signal.SIGKILL)
                        print(f"    killed worker {replica.index} "
                              f"(pid {replica.backend.pid}) mid-shard")
                        return
                time.sleep(0.001)

        thread = threading.Thread(target=killer)
        thread.start()
        results = session.query_batch(batch)
        thread.join()
        print(f"  batch completed anyway: {len(results)} answers")
        print_supervision(session)

    # 3. When healing cannot help: every replica dies on every attempt,
    #    so after max_attempts the caller gets the typed failure with
    #    the worker's exit code chained onto it.
    os.environ[REPRO_FAULTS] = "kill@all:after=0"
    try:
        with open_session(factory) as session:
            print("[3] fault plan 'kill@all:after=0': retries must exhaust ...")
            probe = batch[0]
            try:
                session.query(probe.kind, probe.ingress, probe.dest)
            except PoolUnavailable as exc:
                cause = exc.__cause__
                print(f"  PoolUnavailable: {exc}")
                print(f"  chained ReplicaFailure: kind={cause.kind!r}, "
                      f"exit_code={cause.exit_code}")
    finally:
        del os.environ[REPRO_FAULTS]


if __name__ == "__main__":
    main()
