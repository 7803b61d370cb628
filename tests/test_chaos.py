"""Chaos tests: worker crashes, hangs, and dropped pipes must be
invisible to callers (``repro.service.pool`` supervision +
``repro.service.faults`` injection).

Every test here kills real worker processes — the whole module carries
the ``chaos`` marker so CI can run it in its own step, fenced off from
the deterministic suite.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

import pytest

from polling import kill_busy_workers, wait_until
from repro.analysis.queries import delivery_probability
from repro.backends import MatrixBackend
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import (
    AnalysisSession,
    Fault,
    FaultPlan,
    PoolUnavailable,
    Query,
    QueryServer,
    StreamClient,
)
from repro.service import faults as faults_module
from repro.service.pool import DEAD, HEALTHY, RESTARTING
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
def per_call_values(all_models, all_pairs):
    """Reference answers from per-call ``repro.analysis`` invocations."""
    with MatrixBackend() as backend:
        return [
            delivery_probability(
                all_models[query.dest], inputs=[query.ingress], backend=backend
            )
            for query in all_pairs
        ]


def workers(session: AnalysisSession) -> list:
    """The session's worker clients, in replica order."""
    return [replica.backend for replica in session.pool.replicas]


# ---------------------------------------------------------------------------
# FaultPlan: grammar and distribution (pure-parent, no processes)
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_spec_round_trip(self):
        spec = "kill@1:after=5;delay@all:ms=30;drop@2:after=1;kill@0:exit=3"
        plan = FaultPlan.parse(spec)
        assert len(plan.faults) == 4
        assert plan.spec() == spec
        assert FaultPlan.parse(plan.spec()).spec() == spec

    def test_for_worker_targets_by_index(self):
        plan = FaultPlan.parse("kill@1:after=5;delay@all:ms=30")
        everyone = plan.for_worker(0)
        assert [f.kind for f in everyone.faults] == ["delay"]
        targeted = plan.for_worker(1)
        assert sorted(f.kind for f in targeted.faults) == ["delay", "kill"]

    def test_from_env_and_active(self):
        environ: dict[str, str] = {}
        assert FaultPlan.from_env(environ) is None
        with faults_module.active("kill@0", environ):
            plan = FaultPlan.from_env(environ)
            assert plan is not None and plan.faults[0].kind == "kill"
        assert faults_module.REPRO_FAULTS not in environ

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode@1")
        with pytest.raises(ValueError, match="malformed fault option"):
            FaultPlan.parse("kill@1:after")
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.parse("kill@1:when=now")
        with pytest.raises(ValueError, match="after="):
            Fault("kill", after=-1)

    def test_delay_hook_respects_after_threshold(self):
        fault = Fault("delay", worker=0, after=2, ms=1.0)
        worker = FaultPlan([fault]).for_worker(0)
        started = time.monotonic()
        worker.delay_reply(0)  # below the threshold: no sleep
        worker.delay_reply(1)
        assert time.monotonic() - started < 0.5
        assert worker._armed("delay", 2) is fault


# ---------------------------------------------------------------------------
# The acceptance criterion: SIGKILL mid-batch, answers still exact
# ---------------------------------------------------------------------------
class TestCrashTransparentBatch:
    def test_sigkill_mid_batch_is_invisible(
        self, all_models, all_pairs, per_call_values
    ):
        """SIGKILL one worker while the 112-pair batch is in flight: the
        batch completes with zero caller-visible errors, every answer
        matches per-call ``repro.analysis`` within 1e-9, the pool shows
        the restart and the transparent retry, and the respawned worker
        was fed specs only (0 AST compilations)."""
        with AnalysisSession(
            models=all_models.values(),
            pool_size=4,
            pool_mode="process",
            workers=4,
            max_attempts=3,
        ) as session:
            for dest in all_models:
                session.warm(dest, solve=False)
            pids_before = {h.index: h.pid for h in workers(session)}
            killed: list[int] = []
            stop = threading.Event()

            thread = threading.Thread(target=kill_busy_workers, args=(session.pool, stop, killed))
            thread.start()
            result = session.query_batch(all_pairs)
            stop.set()
            thread.join(timeout=10.0)
            assert killed, "the killer never caught a busy worker"

            for value, expected in zip(result.values, per_call_values):
                assert value == pytest.approx(expected, abs=1e-9)

            assert wait_until(lambda: session.pool.stats()["restarts"] >= 1)
            stats = session.pool.stats()
            assert stats["failures"] >= 1
            assert session.retried_shards >= 1
            assert session.stats()["retried_shards"] >= 1

            # Wait for every slot to heal (probing an undetected corpse
            # quarantines it; the next poll sees the respawned worker).
            def fully_healed():
                reports = session.pool.worker_reports()
                return len(reports) == 4 and all(
                    r["health"] == HEALTHY for r in reports
                )

            assert wait_until(fully_healed)
            # The respawned worker is a fresh process that rebuilt every
            # plan from re-published specs — it never compiled an AST.
            (report,) = [
                r for r in session.pool.worker_reports() if r["index"] == killed[0]
            ]
            assert report["health"] == HEALTHY
            assert report["pid"] != pids_before[killed[0]]
            assert report["ast_compilations"] == 0
            assert report["plans"] >= 1


# ---------------------------------------------------------------------------
# Deterministic injected faults (REPRO_FAULTS)
# ---------------------------------------------------------------------------
class TestInjectedFaults:
    def test_injected_kill_recovers(
        self, all_models, all_pairs, per_call_values, inject_faults
    ):
        """Worker 1 dies on its third query request — on every incarnation
        (the respawn re-reads the plan) — and the batch still answers.

        Dispatch is serial so the routing is fixed: new destinations
        alternate between the two replicas, and worker 1 dies on the sixth.
        With two dispatch threads, worker 0 could take seven of the eight
        destinations while worker 1 still served its first, and the fault
        never fired.
        """
        inject_faults("kill@1:after=2")
        with AnalysisSession(
            models=all_models.values(),
            pool_size=2,
            pool_mode="process",
            workers=1,
            max_attempts=3,
        ) as session:
            result = session.query_batch(all_pairs)
            for value, expected in zip(result.values, per_call_values):
                assert value == pytest.approx(expected, abs=1e-9)
            assert session.retried_shards >= 1
            assert session.pool.failures >= 1
            assert wait_until(lambda: session.pool.stats()["restarts"] >= 1)

    def test_dropped_pipe_is_retried(
        self, all_models, all_pairs, per_call_values, inject_faults
    ):
        """A worker closing its pipe mid-protocol reads as a crash."""
        inject_faults("drop@0:after=1")
        with AnalysisSession(
            models=all_models.values(),
            pool_size=2,
            pool_mode="process",
            workers=2,
            max_attempts=3,
        ) as session:
            result = session.query_batch(all_pairs)
            for value, expected in zip(result.values, per_call_values):
                assert value == pytest.approx(expected, abs=1e-9)
            assert session.pool.failures >= 1
            assert session.retried_shards >= 1

    def test_watchdog_kills_hung_worker(self, all_models, inject_faults):
        """A worker stalling past ``shard_timeout`` is killed and replaced;
        the stalled shard is retried on the healthy replica."""
        inject_faults("delay@0:ms=30000")
        model = next(iter(all_models.values()))
        batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]
        with AnalysisSession(
            model,
            pool_size=2,
            pool_mode="process",
            workers=1,
            shard_timeout=2.0,
            max_attempts=3,
        ) as session:
            started = time.monotonic()
            result = session.query_batch(batch)
            elapsed = time.monotonic() - started
            expected = delivery_probability(model, inputs=[model.ingress_packets[0]])
            assert result.values[0] == pytest.approx(expected, abs=1e-9)
            # The watchdog fired (we did not sit out the 30 s stall)...
            assert elapsed < 25.0
            stats = session.pool.stats()
            assert stats["failures"] >= 1
            assert session.retried_shards >= 1
            # ...and the timeout failure is typed as such.
            failed = [r for r in session.pool.replicas if r.failures]
            assert failed
            assert any("within" in (r.last_error or "") for r in failed)

    def test_every_replica_dying_raises_pool_unavailable(
        self, all_models, inject_faults
    ):
        """When every incarnation of every worker dies, retries exhaust
        into the typed ``PoolUnavailable`` — not a hang, not a bare crash."""
        inject_faults("kill@all:after=0")
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model,
            pool_size=2,
            pool_mode="process",
            workers=1,
            max_attempts=2,
        ) as session:
            with pytest.raises(PoolUnavailable, match="retries exhausted"):
                session.query("delivery", model.ingress_packets[0], model.dest)
            assert session.pool.failures >= 2

    def test_exit_code_travels_into_the_failure(self, all_models, inject_faults):
        inject_faults("kill@all:after=0:exit=42")
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model, pool_size=1, pool_mode="process", workers=1, max_attempts=1
        ) as session:
            with pytest.raises(PoolUnavailable) as excinfo:
                session.query("delivery", model.ingress_packets[0], model.dest)
            failure = excinfo.value.__cause__
            assert failure is not None and failure.exit_code == 42


# ---------------------------------------------------------------------------
# Introspection while the pool is healing
# ---------------------------------------------------------------------------
class TestHealingIntrospection:
    def test_worker_reports_survive_a_dead_replica(self, all_models):
        """worker_reports() reports a killed replica's status instead of
        raising, and the pool heals underneath it."""
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model, pool_size=2, pool_mode="process", workers=1, max_attempts=3
        ) as session:
            session.warm(model.dest, solve=False)
            victim = workers(session)[1]
            old_pid = victim.pid
            os.kill(old_pid, signal.SIGKILL)
            wait_until(lambda: not victim.transport.process.is_alive(), timeout=10.0)

            reports = session.pool.worker_reports()
            assert [r["index"] for r in reports] == [0, 1]
            assert reports[0]["health"] == HEALTHY
            probed = reports[1]
            # The probe either caught the corpse (status report) or the
            # respawn already healed the slot (fresh pid): both are fine,
            # neither raises.
            if probed["health"] == HEALTHY:
                assert probed["pid"] != old_pid
            else:
                assert probed["health"] in (RESTARTING, DEAD)
                assert probed["exit_code"] == -signal.SIGKILL

            # The pool heals: the slot comes back healthy with a new worker
            # and keeps answering queries.
            assert wait_until(
                lambda: session.pool.replicas[1].health == HEALTHY, timeout=30.0
            )
            expected = delivery_probability(model, inputs=[model.ingress_packets[0]])
            value = session.query("delivery", model.ingress_packets[0], model.dest)
            assert value == pytest.approx(expected, abs=1e-9)
            assert workers(session)[1].pid != old_pid

    def test_cli_reports_supervision_counters(self, capsys, inject_faults, tmp_path):
        """The batch CLI prints the supervision summary when faults fired."""
        from repro.service.cli import main as service_main

        inject_faults("kill@1:after=0")
        out = tmp_path / "results.json"
        code = service_main(
            [
                "--topology",
                "fattree:4",
                "--scheme",
                "ecmp",
                "--dest",
                "1",
                "--dest",
                "2",
                "--all-pairs",
                "--workers",
                "2",
                "--pool-size",
                "2",
                "--pool-mode",
                "process",
                "--shard-attempts",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "supervision:" in printed
        assert "transparently retried" in printed


# ---------------------------------------------------------------------------
# End to end: the streaming front end over a healing pool
# ---------------------------------------------------------------------------
class TestStreamingRecovery:
    def test_killed_worker_surfaces_as_retryable_and_client_recovers(
        self, all_models, all_pairs, per_call_values, inject_faults
    ):
        """A worker that keeps dying under streamed queries is invisible:
        session-level retry, coalescer isolation, and the client's
        retry-with-backoff absorb every crash."""
        # Every incarnation of worker 0 serves one query request, then
        # dies on its next one — a steady stream of mid-serve crashes.
        inject_faults("kill@0:after=1")
        queries = all_pairs[:24]
        expected = per_call_values[:24]

        def wire(query):
            return {
                "kind": query.kind,
                "ingress": [query.ingress["sw"], query.ingress["pt"]],
                "dest": query.dest,
            }

        async def run(session):
            # window=0: no coalescing, so every query is its own shard
            # request and worker 0's kill threshold arms quickly.
            async with QueryServer(session, window=0.0) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                replies = await asyncio.gather(
                    *[conn.request(wire(query), retries=4) for query in queries]
                )
                stats = (await conn.request({"op": "stats"}))["stats"]
                await conn.aclose()
                return replies, stats

        with AnalysisSession(
            models=all_models.values(),
            pool_size=2,
            pool_mode="process",
            workers=2,
            max_attempts=3,
        ) as session:
            replies, stats = asyncio.run(run(session))

        # Zero caller-visible errors: every crash was absorbed below the
        # wire (transparent retry) or at the client (backoff on a
        # retryable ``unavailable``) — never surfaced as a failure.
        for query, reply, value in zip(queries, replies, expected):
            assert "error" not in reply, (query, reply)
            assert reply["value"] == pytest.approx(value, abs=1e-9)
        assert stats["pool"]["failures"] >= 1
        assert stats["retried_shards"] >= 1
