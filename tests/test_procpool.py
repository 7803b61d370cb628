"""Tests for process-hosted backend replicas (``repro.service.procpool``)
and the manager-independent wire format (``repro.service.wire``)."""

from __future__ import annotations

import threading
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polling import wait_until
from repro.analysis.queries import delivery_probability
from repro.backends import MatrixBackend
from repro.core import syntax as s
from repro.core.distributions import Dist
from repro.core.packet import DROP, Packet
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import AnalysisSession, BackendPool, ProcessReplicas, Query
from repro.service.cli import main as service_main
from repro.service.wire import (
    QuerySpec,
    ResultSpec,
    dist_from_spec,
    dist_to_spec,
    packet_from_spec,
    packet_to_spec,
)
from repro.topology import edge_switches, fat_tree


def process_pool(size: int) -> BackendPool:
    """A bare pool of worker processes behind a fresh planner backend."""
    return BackendPool(ProcessReplicas(MatrixBackend()), size)


def workers(session: AnalysisSession) -> list:
    """The session's worker clients, in replica order."""
    return [replica.backend for replica in session.pool.replicas]


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
    """Reference answers from per-call ``repro.analysis`` invocations.

    One shared matrix backend keeps the 112 per-call invocations fast;
    each call still goes through the ordinary analysis entry point.
    """
    with MatrixBackend() as backend:
        return [
            delivery_probability(
                all_models[query.dest], inputs=[query.ingress], backend=backend
            )
            for query in all_pairs
        ]


# ---------------------------------------------------------------------------
# Wire format: round trips and exactness
# ---------------------------------------------------------------------------
packet_values = st.dictionaries(
    st.sampled_from(["sw", "pt", "up1", "hops", "detour"]),
    st.integers(min_value=0, max_value=40),
    min_size=1,
    max_size=5,
)
probabilities = st.one_of(
    st.fractions(min_value=0, max_value=1),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestWireFormat:
    @given(values=packet_values)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_packet_round_trip(self, values):
        packet = Packet(values)
        spec = packet_to_spec(packet)
        assert spec == tuple(sorted(values.items()))
        assert packet_from_spec(spec) == packet

    @given(entries=st.lists(st.tuples(packet_values, probabilities), min_size=1, max_size=6))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_dist_round_trip_preserves_probability_types(self, entries):
        weights: dict = {}
        for values, prob in entries:
            weights[Packet(values)] = weights.get(Packet(values), 0) + prob
        weights[DROP] = Fraction(1, 7)  # drop encodes as None on the wire
        dist = Dist(weights, check=False)
        rebuilt = dist_from_spec(dist_to_spec(dist))
        assert dict(rebuilt.items()) == dict(dist.items())
        for outcome, prob in dist.items():
            (match,) = [p for o, p in rebuilt.items() if o == outcome]
            assert type(match) is type(prob)  # Fraction stays Fraction, float stays float

    @given(values=st.lists(packet_values, min_size=1, max_size=5), plan=st.integers(0, 99))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_query_spec_round_trip(self, values, plan):
        packets = [Packet(entry) for entry in values]
        spec = QuerySpec.distributions(plan, packets)
        assert spec.kind == "distributions"
        assert spec.plan == plan
        assert spec.ingress_packets() == packets

    def test_result_spec_round_trip(self):
        dists = {
            Packet({"sw": 1, "pt": 2}): Dist(
                {Packet({"sw": 9}): Fraction(1, 3), DROP: Fraction(2, 3)}, check=False
            ),
            Packet({"sw": 4}): Dist({Packet({"sw": 4}): 1.0}, check=False),
        }
        result = ResultSpec.from_distributions(17, dists)
        assert result.plan == 17
        decoded = result.to_distributions()
        assert set(decoded) == set(dists)
        for packet, dist in dists.items():
            assert dict(decoded[packet].items()) == dict(dist.items())


# ---------------------------------------------------------------------------
# Process replicas: spec-shipped workers
# ---------------------------------------------------------------------------
class TestProcessPool:
    def test_all_pairs_agreement(self, all_models, all_pairs, per_call_values):
        """The acceptance criterion: the 112-pair batch.

        Process-pool answers must match the in-process session and
        per-call analysis within 1e-9, and the workers must have served
        the whole batch without ever compiling an AST.
        """
        with AnalysisSession(models=all_models.values(), workers=4) as threaded:
            thread_values = threaded.query_batch(all_pairs).values

        with AnalysisSession(
            models=all_models.values(),
            pool_size=4,
            pool_mode="process",
            workers=4,
        ) as session:
            served = session.query_batch(all_pairs)
            for value, thread_value, per_call in zip(
                served.values, thread_values, per_call_values
            ):
                assert value == pytest.approx(thread_value, abs=1e-9)
                assert value == pytest.approx(per_call, abs=1e-9)
            # Workers rebuilt every plan from shipped specs only.
            reports = session.pool.worker_reports()
            assert len(reports) == 4
            assert all(report["ast_compilations"] == 0 for report in reports)
            assert sum(report["queries"] for report in reports) >= len(all_pairs)
            # Solver counters cross the process boundary per replica.
            assert all(report["solver"]["factorizations"] >= 1 for report in reports)
            assert all(report["solver"]["assembly_rows"] > 0 for report in reports)

    def test_shards_carry_worker_pids(self, all_models, all_pairs):
        with AnalysisSession(
            models=all_models.values(), pool_size=2, pool_mode="process", workers=2
        ) as session:
            result = session.query_batch(all_pairs)
            pids = {report.worker for report in result.shards}
            # Cross-process evidence: served from >1 worker process, and
            # never from the parent.
            import os

            assert len(pids) > 1
            assert os.getpid() not in pids
            assert all(report.pool_mode == "process" for report in result.shards)
            payload = result.to_json()
            assert all(shard["pool_mode"] == "process" for shard in payload["shards"])
            assert all(shard["worker"] for shard in payload["shards"])

    def test_warm_preplans_every_worker(self, all_models):
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model, pool_size=3, pool_mode="process", workers=3
        ) as session:
            session.warm(model.dest, solve=False)
            reports = session.pool.worker_reports()
            assert all(report["plans"] >= 1 for report in reports)
            assert all(report["ast_compilations"] == 0 for report in reports)
            # The parent planner compiled the policy exactly once.
            assert session.backend.ast_compilations == 1

    def test_exact_fractions_survive_process_boundary(self):
        """A loop-free policy's exact rational answer crosses the wire intact."""
        policy = s.seq(
            s.test("sw", 1),
            s.choice((s.assign("sw", 2), Fraction(1, 3)), (s.assign("sw", 3), Fraction(2, 3))),
        )
        packet = Packet({"sw": 1})
        expected = MatrixBackend().output_distributions(policy, [packet])[packet]
        pool = process_pool(2)
        try:
            with pool.lease() as replica:
                served = replica.backend.output_distributions(policy, [packet])[packet]
        finally:
            pool.close()
        assert dict(served.items()) == dict(expected.items())
        for _, prob in served.items():
            assert isinstance(prob, Fraction)

    def test_certainly_delivers_through_worker(self, topo):
        model = build_model(topo, routing=ecmp_policy(topo, 1), dest=1)
        pool = process_pool(1)
        try:
            with pool.lease() as replica:
                assert replica.backend.certainly_delivers(model) is True
        finally:
            pool.close()

    def test_close_joins_workers(self, all_models):
        model = next(iter(all_models.values()))
        session = AnalysisSession(model, pool_size=2, pool_mode="process", workers=2)
        session.query_batch([Query.delivery(pk, model.dest) for pk in model.ingress_packets])
        handles = workers(session)
        assert all(handle.alive for handle in handles)
        session.close()
        assert all(not handle.alive for handle in handles)
        with pytest.raises(RuntimeError, match="closed"):
            session.query_batch([Query.delivery(model.ingress_packets[0], model.dest)])

    def test_clear_cache_keep_plans_resets_worker_solver_state(self, all_models):
        model = next(iter(all_models.values()))
        batch = [Query.delivery(pk, model.dest) for pk in model.ingress_packets]
        with AnalysisSession(
            model, pool_size=1, pool_mode="process", workers=1
        ) as session:
            session.query_batch(batch)
            session.clear_cache(keep_plans=True)
            (report,) = session.pool.worker_reports()
            assert report["plans"] == 1  # plans kept...
            second = session.query_batch(batch)  # ...and the batch re-solves
            assert second.cache_hits == 0
            for query, result in zip(batch, second.results):
                assert result.value == pytest.approx(
                    session.query("delivery", query.ingress, query.dest), abs=1e-12
                )

    def test_worker_error_does_not_kill_worker(self):
        pool = process_pool(1)
        try:
            with pool.lease() as replica:
                handle = replica.backend
                with pytest.raises(RuntimeError, match="no adopted plan"):
                    handle._request(("query", QuerySpec(999, "distributions", ())))
                assert handle.alive
                assert handle.ping()["pid"] == handle.pid
        finally:
            pool.close()

    def test_session_rejects_unknown_pool_mode(self, all_models):
        model = next(iter(all_models.values()))
        with pytest.raises(ValueError, match="pool_mode"):
            AnalysisSession(model, pool_mode="fiber")


# ---------------------------------------------------------------------------
# Teardown ordering: close() drains in-flight shards (process mode)
# ---------------------------------------------------------------------------
class TestProcessTeardown:
    def test_close_during_batch_drains_deterministically(self, all_models, all_pairs):
        """close() racing a query_batch lets the batch finish completely."""
        with AnalysisSession(
            models=all_models.values(), pool_size=2, pool_mode="process", workers=2
        ) as session:
            outcome: dict = {}

            def serve():
                try:
                    outcome["result"] = session.query_batch(all_pairs)
                except Exception as exc:  # pragma: no cover - failure path
                    outcome["error"] = exc

            thread = threading.Thread(target=serve)
            thread.start()
            # Wait until the batch is genuinely in flight (a lease granted),
            # then close out from under it.
            wait_until(
                lambda: sum(session.pool.stats()["leases"]) > 0
                or not thread.is_alive(),
                timeout=10.0,
                interval=0.001,
            )
            session.close()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert "error" not in outcome, f"in-flight batch died: {outcome.get('error')}"
            assert len(outcome["result"]) == len(all_pairs)
            # Workers are joined once the drain completes.
            assert all(not handle.alive for handle in workers(session))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestProcessCli:
    def test_pool_mode_process_run(self, tmp_path, capsys):
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
                "--output",
                str(out),
            ]
        )
        assert code == 0
        import json
        import os

        payload = json.loads(out.read_text())
        assert payload["queries"] == 28
        assert {shard["replica"] for shard in payload["shards"]} == {0, 1}
        assert all(shard["pool_mode"] == "process" for shard in payload["shards"])
        pids = {shard["worker"] for shard in payload["shards"]}
        assert os.getpid() not in pids
        assert "pool: 2 process-hosted replicas" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Lifecycle racing worker crashes: close() with corpses in the pool
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestCrashLifecycleRaces:
    def test_close_with_undetected_corpse_is_prompt(self, all_models):
        """close() with a SIGKILLed (never-probed) worker neither hangs
        nor double-joins: the corpse is reaped like any other replica."""
        import os
        import signal

        model = next(iter(all_models.values()))
        session = AnalysisSession(model, pool_size=2, pool_mode="process", workers=1)
        session.warm(model.dest, solve=False)
        victim = workers(session)[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.transport.process.join(timeout=10.0)
        started = time.monotonic()
        session.close()
        assert time.monotonic() - started < 20.0
        assert all(
            not handle.transport.process.is_alive() for handle in workers(session)
        )

    def test_close_races_an_inflight_crash(self, all_models, all_pairs):
        """Killing a busy worker and closing immediately afterwards must
        terminate cleanly: the drain and the worker joins resolve
        without hanging or double-joining."""
        import os
        import signal

        session = AnalysisSession(
            models=all_models.values(),
            pool_size=2,
            pool_mode="process",
            workers=2,
        )
        outcome: dict = {}

        def serve():
            try:
                outcome["result"] = session.query_batch(all_pairs)
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=serve)
        thread.start()
        # Wait for a busy worker, kill it, then close out from under the
        # in-flight batch while its failure is still propagating.
        def busy():
            return [r for r in session.pool.replicas if r.busy and not r.dead]

        wait_until(lambda: busy() or not thread.is_alive(), interval=0.0005)
        serving = busy()
        if serving:
            os.kill(serving[0].backend.pid, signal.SIGKILL)
        session.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        # The batch either completed through the drain or failed typed —
        # never a hang, and every worker is joined.
        if "error" in outcome:
            assert isinstance(outcome["error"], RuntimeError)
        else:
            assert len(outcome["result"]) == len(all_pairs)
        assert all(
            not handle.transport.process.is_alive() for handle in workers(session)
        )
