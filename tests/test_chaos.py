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

from polling import wait_until
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
from repro.service.pool import DEAD, HEALTHY, RESTARTING, SUSPECT
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

            def killer():
                # Kill the first worker caught mid-lease (busy = serving).
                # If the SIGKILL races a reply that already left the pipe,
                # no failure registers — strike the next busy worker too.
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline and not stop.is_set():
                    for replica in session.pool.replicas:
                        if replica.busy and replica.health == HEALTHY:
                            os.kill(replica.backend.pid, signal.SIGKILL)
                            killed.append(replica.index)
                            if wait_until(
                                lambda: session.pool.failures > 0, timeout=2.0
                            ):
                                return
                    time.sleep(0.0005)

            thread = threading.Thread(target=killer)
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
        (the respawn re-reads the plan) — and the batch still answers."""
        inject_faults("kill@1:after=2")
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
                assert probed["health"] in (SUSPECT, RESTARTING, DEAD)
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


# ---------------------------------------------------------------------------
# Remote hosts: host death, partitions, garbled frames, wire stalls
# ---------------------------------------------------------------------------
class TestRemoteHostFailover:
    def test_sigkill_host_daemon_mid_batch_is_invisible(
        self, all_models, all_pairs, per_call_values
    ):
        """The remote acceptance criterion: a two-host deployment loses an
        entire host daemon (SIGKILL) mid-way through the 112-pair batch —
        zero caller-visible errors, every answer within 1e-9 of per-call
        analysis, at least one host failover recorded in pool stats and
        visible as trace events, and the surviving workers (including the
        failed-over ones) report 0 AST compilations."""
        from repro.service.host import start_host_process

        daemon_a, addr_a = start_host_process(workers=2)
        daemon_b, addr_b = start_host_process(workers=2)
        hosts = [f"{addr_a[0]}:{addr_a[1]}", f"{addr_b[0]}:{addr_b[1]}"]
        try:
            with AnalysisSession(
                models=all_models.values(),
                pool_size=4,
                pool_mode="remote",
                hosts=hosts,
                workers=4,
                max_attempts=4,
                telemetry=True,
                remote_options={
                    "heartbeat_interval": 0.1,
                    "reconnect_backoff": 0.05,
                    "connect_timeout": 2.0,
                },
            ) as session:
                for dest in all_models:
                    session.warm(dest, solve=False)
                killed = threading.Event()

                def killer():
                    # Strike once a replica on host A is busy serving.
                    deadline = time.monotonic() + 60.0
                    while time.monotonic() < deadline and not killed.is_set():
                        for replica in session.pool.replicas:
                            busy_on_a = (
                                replica.busy
                                and replica.health == HEALTHY
                                and getattr(replica.backend, "host", "") == hosts[0]
                            )
                            if busy_on_a:
                                os.kill(daemon_a.pid, signal.SIGKILL)
                                killed.set()
                                return
                        time.sleep(0.0005)

                thread = threading.Thread(target=killer)
                thread.start()
                result = session.query_batch(all_pairs)
                thread.join(timeout=10.0)
                assert killed.is_set(), "the killer never caught host A busy"

                # Zero caller-visible errors, exact answers.
                for value, expected in zip(result.values, per_call_values):
                    assert value == pytest.approx(expected, abs=1e-9)

                # Host failover is recorded in stats...
                assert wait_until(
                    lambda: session.pool.stats()["failovers"] >= 1, timeout=30.0
                )
                stats = session.pool.stats()
                assert stats["failures"] >= 1
                # ...the orphaned slots re-homed onto the survivor (or a
                # local fallback when the survivor was also refusing)...
                assert wait_until(
                    lambda: hosts[0]
                    not in [
                        r["host"]
                        for r in session.pool.worker_reports()
                        if r["health"] == HEALTHY
                    ],
                    timeout=30.0,
                )
                # ...and the partition/reconnect/failover story is in the
                # telemetry timeline as spans.
                span_names = {
                    record["name"] for record in session.telemetry.tracer.spans()
                }
                assert "host-failover" in span_names or "remote-local-fallback" in span_names

                # Failed-over workers rebuilt plans from re-shipped specs:
                # still 0 AST compilations, across reconnects.
                healthy = [
                    r
                    for r in session.pool.worker_reports()
                    if r["health"] == HEALTHY
                ]
                assert healthy
                assert all(r["ast_compilations"] == 0 for r in healthy)
                # A re-homed replica turns HEALTHY a moment after it leaves
                # host A: poll, like every other post-failover condition here.
                assert wait_until(
                    lambda: any(
                        r["reconnects"] >= 1
                        for r in session.pool.worker_reports()
                        if r["health"] == HEALTHY
                    ),
                    timeout=30.0,
                )
        finally:
            for daemon in (daemon_a, daemon_b):
                if daemon.is_alive():
                    daemon.kill()
                daemon.join(timeout=10.0)

    def test_all_hosts_gone_degrades_to_local_fallback(self, all_models):
        """With every remote host dead, the pool degrades to local worker
        processes instead of failing the caller."""
        from repro.service.host import start_host_process

        daemon, addr = start_host_process(workers=2)
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model,
            pool_size=2,
            pool_mode="remote",
            hosts=[f"{addr[0]}:{addr[1]}"],
            workers=2,
            max_attempts=4,
            remote_options={
                "heartbeat_interval": 0.1,
                "reconnect_attempts": 2,
                "reconnect_backoff": 0.02,
                "connect_timeout": 1.0,
            },
        ) as session:
            session.warm(model.dest, solve=False)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.join(timeout=10.0)
            expected = delivery_probability(model, inputs=[model.ingress_packets[0]])
            value = session.query("delivery", model.ingress_packets[0], model.dest)
            assert value == pytest.approx(expected, abs=1e-9)
            assert wait_until(
                lambda: session.pool.stats()["local_fallbacks"] >= 1, timeout=30.0
            )
            assert wait_until(
                lambda: any(
                    r["health"] == HEALTHY and r["host"] == "local"
                    for r in session.pool.worker_reports()
                ),
                timeout=30.0,
            )

    def test_all_hosts_gone_without_fallback_is_pool_unavailable(self, all_models):
        """local_fallback=False keeps the PoolUnavailable contract: retries
        exhaust into the typed error, never a hang."""
        from repro.service.host import start_host_process

        daemon, addr = start_host_process(workers=2)
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model,
            pool_size=2,
            pool_mode="remote",
            hosts=[f"{addr[0]}:{addr[1]}"],
            workers=2,
            max_attempts=2,
            remote_options={
                "heartbeat_interval": 0.1,
                "reconnect_attempts": 1,
                "reconnect_backoff": 0.02,
                "connect_timeout": 0.5,
                "local_fallback": False,
            },
        ) as session:
            session.warm(model.dest, solve=False)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.join(timeout=10.0)
            with pytest.raises(PoolUnavailable):
                session.query("delivery", model.ingress_packets[0], model.dest)


class TestRemoteNetworkFaults:
    """The REPRO_FAULTS network kinds, injected at the host relay."""

    def _remote_session(self, models, hosts, **remote_options):
        options = {
            "heartbeat_interval": 0.1,
            "suspect_after": 3.0,
            "condemn_after": 8.0,
            "reconnect_backoff": 0.05,
        }
        options.update(remote_options)
        return AnalysisSession(
            models=models.values(),
            pool_size=2,
            pool_mode="remote",
            hosts=hosts,
            workers=2,
            max_attempts=4,
            telemetry=True,
            remote_options=options,
        )

    def test_partition_blackhole_detected_and_reconnected(
        self, all_models, all_pairs, per_call_values, inject_faults
    ):
        """A relay that stops reading/acking/heartbeating replica 0 for
        1.5 s trips the missed-heartbeat → condemn path; the replica is
        torn down mid-partition, reconnected, and the batch is exact."""
        from repro.service import HostServer

        inject_faults("partition@0:ms=1500")
        with HostServer(workers=2, heartbeat_interval=0.1).start() as server:
            hosts = [f"{server.address[0]}:{server.port}"]
            with self._remote_session(all_models, hosts) as session:
                result = session.query_batch(all_pairs)
                for value, expected in zip(result.values, per_call_values):
                    assert value == pytest.approx(expected, abs=1e-9)
                assert wait_until(
                    lambda: session.pool.stats()["remote_reconnects"] >= 1,
                    timeout=30.0,
                )
                stats = session.pool.stats()
                assert stats["failures"] >= 1
                # The monitor counted misses before condemning...
                assert sum(stats["heartbeat_misses"]) >= 1 or any(
                    r["heartbeat_misses"] >= 1
                    for r in session.pool.worker_reports()
                )
                # ...and the partition is on the telemetry timeline.
                span_names = {
                    record["name"] for record in session.telemetry.tracer.spans()
                }
                assert "heartbeat-missed" in span_names
                assert "remote-reconnect" in span_names

    def test_garbled_reply_frame_is_transport_failure_then_retry(
        self, all_models, all_pairs, per_call_values, inject_faults
    ):
        """One corrupted reply frame (valid header, failing checksum) must
        read as ReplicaFailure(kind="transport"), not a pickle error; the
        shard retries and the batch stays exact."""
        from repro.service import HostServer

        inject_faults("garble@0")
        with HostServer(workers=2, heartbeat_interval=0.1).start() as server:
            hosts = [f"{server.address[0]}:{server.port}"]
            with self._remote_session(all_models, hosts) as session:
                result = session.query_batch(all_pairs)
                for value, expected in zip(result.values, per_call_values):
                    assert value == pytest.approx(expected, abs=1e-9)
                assert session.pool.failures >= 1
                assert session.retried_shards >= 1
                failed = [r for r in session.pool.replicas if r.failures]
                assert any(
                    "corrupt frame" in (r.last_error or "") for r in failed
                )

    def test_stalled_wire_slows_but_stays_exact(self, all_models, inject_faults):
        """A transport-layer stall delays replies without corrupting
        anything: no failures, exact answers, visibly slower."""
        from repro.service import HostServer

        inject_faults("stall@all:ms=250")
        model = next(iter(all_models.values()))
        models = {model.dest: model}
        with HostServer(workers=2, heartbeat_interval=0.1).start() as server:
            hosts = [f"{server.address[0]}:{server.port}"]
            with self._remote_session(models, hosts) as session:
                started = time.monotonic()
                expected = delivery_probability(
                    model, inputs=[model.ingress_packets[0]]
                )
                value = session.query(
                    "delivery", model.ingress_packets[0], model.dest
                )
                elapsed = time.monotonic() - started
                assert value == pytest.approx(expected, abs=1e-9)
                assert elapsed >= 0.25
                assert session.pool.failures == 0
