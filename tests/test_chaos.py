"""Crash tests: a worker killed with SIGKILL fails the group it was
solving, leaves the pool's rotation, and the remaining replicas serve.

Every test here kills real worker processes with ``os.kill`` — the
whole module carries the ``chaos`` marker so CI can run it in its own
step, fenced off from the deterministic suite.  Nothing is respawned or
retried (``repro.service.pool``), so each test knows which call fails.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading

import pytest

from polling import wait_until
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import (
    AnalysisSession,
    PoolUnavailable,
    Query,
    QueryServer,
    ReplicaFailure,
    StreamClient,
)
from repro.topology import edge_switches, fat_tree

pytestmark = pytest.mark.chaos


def ecmp_model(topo, dest: int):
    failable = downward_failable_ports(topo)
    return build_model(
        topo,
        routing=ecmp_policy(topo, dest),
        dest=dest,
        failure=independent_failure_program(failable, 1 / 1000),
        failable=failable,
    )


@pytest.fixture(scope="module")
def topo():
    return fat_tree(4)


@pytest.fixture(scope="module")
def all_models(topo):
    """One model per edge destination: the full FatTree k=4 query space."""
    return {dest: ecmp_model(topo, dest) for dest in edge_switches(topo)}


@pytest.fixture(scope="module")
def halves(all_models):
    """The 112-pair all-pairs batch, split into two halves by ingress."""
    first, second = [], []
    for dest, model in all_models.items():
        for position, packet in enumerate(model.ingress_packets):
            (first if position % 2 else second).append(Query.delivery(packet, dest))
    assert len(first) + len(second) == 112
    return first, second


@pytest.fixture(scope="module")
def thread_values(all_models, halves):
    """Each half answered by a thread-mode session: the reference answers."""
    with AnalysisSession(models=all_models.values(), workers=1) as session:
        return [session.query_batch(half).values for half in halves]


def process_session(models, pool_size: int, workers: int = 1) -> AnalysisSession:
    return AnalysisSession(
        models=models, pool_size=pool_size, pool_mode="process", workers=workers
    )


def kill_worker(session: AnalysisSession, index: int) -> int:
    """SIGKILL replica ``index``'s worker and wait until it is reaped."""
    pid = session.pool.worker_id(index)
    os.kill(pid, signal.SIGKILL)
    process = session.pool.replicas[index].backend.transport.process
    assert wait_until(lambda: not process.is_alive(), timeout=10.0)
    return pid


# ---------------------------------------------------------------------------
# A killed worker fails its group; the survivors serve what comes next
# ---------------------------------------------------------------------------
class TestInjectedFaults:
    def test_exit_code_travels_into_the_failure(self, all_models):
        model = next(iter(all_models.values()))
        with process_session([model], 1) as session:
            kill_worker(session, 0)
            with pytest.raises(ReplicaFailure) as excinfo:
                session.query("delivery", model.ingress_packets[0], model.dest)
            assert excinfo.value.replica == 0
            assert excinfo.value.exit_code == -signal.SIGKILL

    def test_injected_kill_recovers(self, all_models, halves, thread_values):
        """The batch whose group met the dead worker raises; the next
        batch is served by the survivor alone, equal to thread mode."""
        first, second = halves
        with process_session(all_models.values(), 2) as session:
            assert session.query_batch(first).values == thread_values[0]
            # Sequential groups all ran on replica 0: kill the one that served.
            assert session.pool.stats()["leases"] == [len(all_models), 0]
            kill_worker(session, 0)
            with pytest.raises(ReplicaFailure) as excinfo:
                session.query_batch(second)
            assert (excinfo.value.replica, excinfo.value.exit_code) == (0, -signal.SIGKILL)

            result = session.query_batch(second)
            assert result.values == thread_values[1]
            survivor = session.pool.worker_id(1)
            solved = [report for report in result.shards if report.replica >= 0]
            assert {report.worker for report in solved} == {survivor}
            stats = session.pool.stats()
            assert stats["dead"] == [0]
            assert stats["leases"] == [len(all_models) + 1, len(all_models)]

    def test_every_replica_dying_raises_pool_unavailable(self, all_models):
        """Each dead worker fails one call; with none left, leases fail
        typed — not a hang, not a bare crash."""
        model = next(iter(all_models.values()))
        packet = model.ingress_packets[0]
        with process_session([model], 2) as session:
            kill_worker(session, 0)
            kill_worker(session, 1)
            failed = []
            for _ in range(2):
                with pytest.raises(ReplicaFailure) as excinfo:
                    session.query("delivery", packet, model.dest)
                failed.append(excinfo.value.replica)
            assert sorted(failed) == [0, 1]
            with pytest.raises(PoolUnavailable, match="all 2 replica"):
                session.query("delivery", packet, model.dest)


# ---------------------------------------------------------------------------
# Introspection and the fork hazard after a death
# ---------------------------------------------------------------------------
class TestHealingIntrospection:
    def test_worker_reports_survive_a_dead_replica(self, all_models):
        """worker_reports() reports a killed replica's status instead of
        raising, and the live replica keeps answering."""
        model = next(iter(all_models.values()))
        with process_session([model], 2) as session:
            session.warm(model.dest, solve=False)
            old_pid = kill_worker(session, 1)
            for _ in range(2):  # the probe finds the corpse, then the status stays
                reports = session.pool.worker_reports()
                assert [r["index"] for r in reports] == [0, 1]
                assert reports[0]["dead"] is False and reports[0]["plans"] == 1
                dead = reports[1]
                assert dead["dead"] is True and dead["pid"] == old_pid
                assert dead["exit_code"] == -signal.SIGKILL
                assert "died" in dead["error"]
            value = session.query("delivery", model.ingress_packets[0], model.dest)
            assert 0.0 < value <= 1.0

    def test_a_dead_worker_starts_no_process_and_no_thread(self, all_models, halves):
        """Workers fork only while the pool is built: after a death the
        children only shrink, and no thread is started to replace it."""
        first, second = halves
        with process_session(all_models.values(), 2, workers=2) as session:
            session.query_batch(first)
            before = {child.pid for child in multiprocessing.active_children()}
            threads = {thread.ident for thread in threading.enumerate()}
            killed = kill_worker(session, 0)
            with pytest.raises(ReplicaFailure):
                session.query_batch(second)
            session.query_batch(second)
            session.pool.worker_reports()
            after = {child.pid for child in multiprocessing.active_children()}
            assert after <= before - {killed}
            started = [
                thread.name
                for thread in threading.enumerate()
                if thread.ident not in threads
                and not thread.name.startswith(("repro-shard", "repro-dispatch"))
            ]
            assert not started


# ---------------------------------------------------------------------------
# End to end: the streaming front end over a pool that lost a worker
# ---------------------------------------------------------------------------
class TestStreamingRecovery:
    def test_killed_worker_surfaces_as_retryable_and_client_recovers(self, all_models):
        """The query that meets the dead worker gets the retryable
        ``unavailable`` error; the client's resend is answered by the
        survivor, and stats list the dead replica."""
        model = next(iter(all_models.values()))
        first, second = model.ingress_packets[:2]

        def wire(packet):
            return {"ingress": [packet["sw"], packet["pt"]], "dest": model.dest}

        async def run(session):
            async with QueryServer(session, window=0.0) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                answered = await conn.request(wire(first))
                # The one request ran on replica 0: kill the one that served.
                assert session.pool.stats()["leases"] == [1, 0]
                bound = 0
                kill_worker(session, bound)
                refused = await conn.request(wire(second))
                recovered = await conn.request(wire(model.ingress_packets[2]), retries=2)
                stats = (await conn.request({"op": "stats"}))["stats"]
                await conn.aclose()
                return bound, answered, refused, recovered, stats, conn.retries

        with process_session([model], 2) as session:
            bound, answered, refused, recovered, stats, retries = asyncio.run(run(session))

        assert "value" in answered
        assert refused["error"]["code"] == "unavailable"
        assert refused["error"]["retry"] is True
        assert 0.0 < recovered["value"] <= 1.0
        assert retries == 0  # the dead replica left the rotation: no resend needed
        assert stats["pool"]["dead"] == [bound]
