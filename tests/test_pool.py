"""Tests for the backend replica pool (``repro.service.pool``) and the
cross-manager (spec-based) cache-key semantics it depends on."""

from __future__ import annotations

import os
import threading

import pytest

from polling import wait_until
from repro.analysis.queries import delivery_probability
from repro.backends import MatrixBackend
from repro.core.interpreter import Interpreter
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import AnalysisSession, BackendPool, Query
from repro.topology import edge_switches, fat_tree


def ecmp_model(topo, dest: int, failure_probability=1 / 1000):
    failable = downward_failable_ports(topo)
    return build_model(
        topo,
        routing=ecmp_policy(topo, dest),
        dest=dest,
        failure=independent_failure_program(failable, failure_probability),
        failable=failable,
    )


@pytest.fixture(scope="module")
def topo():
    return fat_tree(4)


@pytest.fixture(scope="module")
def models(topo):
    dests = edge_switches(topo)[:3]
    return {dest: ecmp_model(topo, dest) for dest in dests}


@pytest.fixture(scope="module")
def all_pairs(models):
    """The FatTree k=4 all-pairs delivery batch over the fixture dests."""
    return [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]


@pytest.fixture(scope="module")
def per_call_values(models, all_pairs):
    """Reference answers from the per-call ``repro.analysis`` entry point."""
    return [
        delivery_probability(models[query.dest], inputs=[query.ingress])
        for query in all_pairs
    ]


def process_session(models, pool_size, **options) -> AnalysisSession:
    """A session whose replicas are worker processes (the parallel mode)."""
    return AnalysisSession(
        models=models.values(), pool_mode="process", pool_size=pool_size, **options
    )


def adopted(planner: MatrixBackend, policy) -> tuple[MatrixBackend, object]:
    """A fresh backend rebuilt the way workers rebuild: from shipped specs."""
    replica = MatrixBackend()
    return replica, replica.adopt_plan("shipped", *planner.plan_payload(policy))


# ---------------------------------------------------------------------------
# Cross-manager plan specs and cache keys (the satellite regression suite)
# ---------------------------------------------------------------------------
class TestCrossManagerKeys:
    def test_adopted_plan_is_independent_of_the_planner(self, models):
        model = next(iter(models.values()))
        base = MatrixBackend()
        base.output_distributions(model.policy, model.ingress_packets[:2])
        replica, plan = adopted(base, model.policy)
        # Fully independent mutable state, and no AST compilation: the
        # adopted stage FDDs live in the replica's own manager.
        assert replica.manager is not base.manager
        assert replica.ast_compilations == 0
        for stage, base_stage in zip(plan.stages, base.plan(model.policy).stages):
            fdd = getattr(stage, "fdd", None) or stage.body_fdd
            base_fdd = getattr(base_stage, "fdd", None) or base_stage.body_fdd
            assert fdd is not base_fdd
            assert fdd.manager is replica.manager

    def test_plan_keys_identical_across_managers(self, models):
        """Every manager holding the same model produces the same key."""
        model = next(iter(models.values()))
        base = MatrixBackend()
        independent = MatrixBackend()  # compiles from the AST on its own
        key = base.plan_key(model.policy)
        assert independent.plan_key(model.policy) == key
        # A plan adopted into a third manager re-serializes to that key.
        replica, plan = adopted(base, model.policy)
        plan.specs = None
        specs = replica._stage_specs(plan)
        assert ("fdd-stages", tuple(entry[:3] for entry in specs)) == key
        # Spec-based, not id-based: no FDD node (manager-bound object) and
        # no raw id() may appear anywhere in the key.
        def flat(value):
            if isinstance(value, tuple):
                for item in value:
                    yield from flat(item)
            else:
                yield value
        from repro.core.fdd.node import FddNode

        assert not any(isinstance(leaf, FddNode) for leaf in flat(key))

    def test_replica_answers_match_base(self, models):
        model = next(iter(models.values()))
        base = MatrixBackend()
        expected = base.output_distributions(model.policy, model.ingress_packets)
        replica, _plan = adopted(base, model.policy)
        served = replica.query_plan("shipped", model.ingress_packets)
        for packet in model.ingress_packets:
            assert served[packet].close_to(expected[packet], tolerance=1e-12)

    def test_session_policy_key_shared_across_replicas(self, models):
        model = next(iter(models.values()))
        with process_session({model.dest: model}, 2, workers=1) as session:
            pool = session.pool
            with pool.lease_replica(0) as first:
                key_a = session._policy_key(model.policy, first.backend)
            with pool.lease_replica(1) as second:
                key_b = session._policy_key(model.policy, second.backend)
            assert key_a == key_b
            # One memoised entry serves both replicas.
            assert len(session._keys) == 1


# ---------------------------------------------------------------------------
# Pooled sessions agree with pool-of-1 and with per-call analysis
# ---------------------------------------------------------------------------
class TestPooledAgreement:
    def test_pool_matches_single_and_per_call(
        self, models, all_pairs, per_call_values
    ):
        """Pool of N answers the all-pairs batch identically (≤1e-9) to a
        pool of 1 and to per-call ``repro.analysis`` results."""
        with AnalysisSession(
            models=models.values(), workers=1, pool_size=1
        ) as single:
            baseline = single.query_batch(all_pairs).values
        with process_session(models, 3, workers=4) as pooled:
            served = pooled.query_batch(all_pairs).values
        for value, reference, expected in zip(served, baseline, per_call_values):
            assert value == pytest.approx(reference, abs=1e-9)
            assert value == pytest.approx(expected, abs=1e-9)

    def test_cached_repeat_leases_no_replica(self, models, all_pairs):
        with process_session(models, 2, workers=4) as session:
            session.query_batch(all_pairs)
            repeat = session.query_batch(all_pairs)
            assert repeat.cache_hits == len(all_pairs)
            # Fully cached destinations never touch a replica.
            assert all(report.replica == -1 for report in repeat.shards)
            assert all(report.worker is None for report in repeat.shards)

    def test_results_cached_across_replicas(self, models, all_pairs):
        """A hit computed on one replica serves queries headed anywhere."""
        with process_session(models, 3, workers=1) as session:
            # Replica 0 is held, so the lowest free replica solves it all.
            with session.pool.lease_replica(0):
                first = session.query_batch(all_pairs)
            assert first.cache_hits == 0
            assert {report.replica for report in first.shards} == {1}
            # Replica 1 solved it; one session cache answers it again, in
            # any order, with replica 0 free.
            second = session.query_batch(all_pairs[::-1])
            assert second.cache_hits == len(all_pairs)
            assert session.pool.stats()["leases"] == [1, len(models), 0]

    def test_local_pools_report_placement_defaults(self, models):
        """Both pool modes report the pid hosting each replica."""
        model = next(iter(models.values()))
        with AnalysisSession(model, workers=2) as session:
            assert session.pool.stats()["workers"] == [os.getpid()]
        with process_session({model.dest: model}, 1, workers=1) as session:
            (pid,) = session.pool.stats()["workers"]
            (report,) = session.pool.worker_reports()
            assert pid != os.getpid()
            assert (report["pid"], report["dead"]) == (pid, False)


# ---------------------------------------------------------------------------
# Leasing: the lowest-index free replica, exclusively
# ---------------------------------------------------------------------------
class TestRouting:
    def test_lowest_free_replica_is_leased(self, models, all_pairs):
        """Sequential groups all run on replica 0; a group arriving while
        replica 0 is held overflows to replica 1."""
        with process_session(models, 2, workers=1, cache=False) as session:
            first = session.query_batch(all_pairs)
            assert {r.replica for r in first.shards} == {0}
            with session.pool.lease():
                again = session.query_batch(all_pairs)
            assert {r.replica for r in again.shards} == {1}
            assert session.pool.stats()["leases"] == [len(models) + 1, len(models)]

    def test_leases_are_exclusive_under_contention(self):
        pool = BackendPool(_stub_source()[0], 2)
        active = [0, 0]
        guard = threading.Lock()
        failures: list[str] = []
        # Every round all six threads ask for a lease at once, and the two
        # holders meet at ``both_held`` before either lets go: every lease
        # overlaps the other replica's while four threads queue on the pool.
        # Six leases a round pair up, so no holder waits for a partner alone.
        each_round = threading.Barrier(6)
        both_held = threading.Barrier(2)

        def hammer():
            for _ in range(25):
                each_round.wait(timeout=30)
                with pool.lease() as replica:
                    with guard:
                        active[replica.index] += 1
                        if active[replica.index] > 1:
                            failures.append(f"double lease of {replica.index}")
                    both_held.wait(timeout=30)
                    with guard:
                        active[replica.index] -= 1

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert sum(pool.stats()["leases"]) == 150
        pool.close()

    def test_shard_windows_overlap(self, models, all_pairs):
        """Process mode fans destinations out across workers: their
        wall-clock windows overlap, i.e. no destination waited out
        another replica's solve before starting."""
        with process_session(models, 3, workers=4) as session:
            result = session.query_batch(all_pairs)
        solved = [r for r in result.shards if r.replica >= 0]
        assert len({r.replica for r in solved}) > 1
        assert len({r.worker for r in solved}) > 1
        assert any(
            a.overlaps(b) for a in solved for b in solved if a.index < b.index
        )
        for report in result.shards:
            assert report.finished >= report.started
            assert report.seconds == pytest.approx(
                report.finished - report.started, abs=1e-6
            )


# ---------------------------------------------------------------------------
# Warmup takes the lease path (thread-safety satellite)
# ---------------------------------------------------------------------------
class TestWarm:
    def test_warm_preplans_every_replica(self, models):
        model = next(iter(models.values()))
        with process_session({model.dest: model}, 3, workers=1) as session:
            session.warm(model.dest)
            assert [r["plans"] for r in session.pool.worker_reports()] == [1, 1, 1]
            batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]
            assert session.query_batch(batch).cache_hits == len(batch)

    def test_plan_only_warm(self, models):
        model = next(iter(models.values()))
        with process_session({model.dest: model}, 2, workers=1) as session:
            session.warm(model.dest, solve=False)
            assert [r["plans"] for r in session.pool.worker_reports()] == [1, 1]
            # Plans exist everywhere, but nothing was solved or cached.
            batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]
            assert session.query_batch(batch).cache_hits == 0

    def test_warm_races_query_batch_safely(self, models):
        """Warmup and a concurrent batch on the same destination must not
        corrupt state: warm goes through the same leases as queries."""
        model = next(iter(models.values()))
        expected = delivery_probability(model, inputs=[model.ingress_packets[0]])
        errors: list[BaseException] = []
        with process_session({model.dest: model}, 2, workers=2, cache=False) as session:
            batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]

            def warm_loop():
                try:
                    for _ in range(3):
                        session.warm(model.dest)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            thread = threading.Thread(target=warm_loop)
            thread.start()
            for _ in range(3):
                result = session.query_batch(batch)
                assert result.values[0] == pytest.approx(expected, abs=1e-9)
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors


# ---------------------------------------------------------------------------
# Solver-state reset (keep plans) and loop-stage memoisation
# ---------------------------------------------------------------------------
class TestSolverReset:
    def test_reset_solutions_keeps_plans_and_answers(self, models):
        model = next(iter(models.values()))
        backend = MatrixBackend()
        before = backend.output_distributions(model.policy, model.ingress_packets)
        plan = backend.plan(model.policy)
        assert any(stage.factorizations for stage in plan.loop_stages)
        backend.reset_solutions()
        assert backend.plan(model.policy) is plan  # compiled plan survives
        assert all(not len(stage.rows) for stage in plan.loop_stages)
        again = backend.output_distributions(model.policy, model.ingress_packets)
        assert any(stage.factorizations for stage in plan.loop_stages)
        for packet in model.ingress_packets:
            assert again[packet].close_to(before[packet], tolerance=1e-12)

    def test_clear_cache_keep_plans_resolves_without_recompiling(
        self, models, all_pairs
    ):
        with AnalysisSession(models=models.values(), workers=1) as session:
            first = session.query_batch(all_pairs)
            compiled = session.stats()["backend_timings"].get("compile", 0.0)
            session.clear_cache(keep_plans=True)
            again = session.query_batch(all_pairs)
            assert again.cache_hits == 0  # result cache was dropped...
            for value, reference in zip(again.values, first.values):
                assert value == pytest.approx(reference, abs=1e-9)
            # ...but no plan was recompiled (compile time did not move).
            assert session.stats()["backend_timings"].get("compile", 0.0) == compiled

    def test_worker_reports_surface_growth_counters(self, models):
        """A repeated-growth workload shows up in per-replica solver
        counters: after warmup, each growth step is one factorization
        that also counts as growth of a solved chain."""
        dest, model = next(iter(models.items()))
        backend = MatrixBackend()
        with AnalysisSession(model, backend=backend, pool_size=1, workers=1) as session:
            session.query_batch([Query.delivery(model.ingress_packets[0], dest)])
            (report,) = session.pool.worker_reports()
            warm = report["solver"]
            assert (warm["factorizations"], warm["schur_updates"]) == (1, 0)
            assert warm["assembly_rows"] > 0

            session.query_batch(
                [Query.delivery(packet, dest) for packet in model.ingress_packets]
            )
            (report,) = session.pool.worker_reports()
            grown = report["solver"]
            assert (grown["factorizations"], grown["schur_updates"]) == (2, 1)
            # The session-level aggregate mirrors the per-replica counters.
            totals = session.stats()["backend_solver"]
            assert totals["schur_updates"] == grown["schur_updates"]
            assert totals["factorizations"] == grown["factorizations"]

    def test_loop_stage_memoisation(self, models):
        def class_order(cls):  # wildcards sort before values
            return tuple((name, value is not None, value or 0) for name, value in cls.values)

        model = next(iter(models.values()))
        backend = MatrixBackend()
        backend.output_distributions(model.policy, model.ingress_packets)
        (stage,) = backend.plan(model.policy).loop_stages
        # The seed order (the order of the seeds' codes) is the class order.
        assert len(stage.seed_order) == len(stage.seeds) > 1
        assert stage.seed_order == sorted(stage.seed_order, key=class_order)
        # A row is taken once per class: asking again takes none.
        rows = len(stage.rows)
        backend.output_distributions(model.policy, model.ingress_packets[:1])
        assert len(stage.rows) == rows


# ---------------------------------------------------------------------------
# Lifecycle and degradation
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_thread_mode_hosts_one_replica(self, models):
        model = next(iter(models.values()))
        with pytest.raises(ValueError, match="pool_mode='process'"):
            AnalysisSession(model, backend=MatrixBackend(), pool_size=4, workers=2)
        with pytest.raises(ValueError, match="pool_mode='process'"):
            AnalysisSession(model, pool_size=2, workers=1)
        with AnalysisSession(model, backend=MatrixBackend(), workers=2) as session:
            assert session.pool.size == 1
            assert session.pool.replicas[0].backend is session.backend
            packet = model.ingress_packets[0]
            value = session.query("delivery", packet, model.dest)
            assert value == pytest.approx(
                delivery_probability(model, inputs=[packet]), abs=1e-9
            )

    def test_close_tears_down_forked_replicas_only_plus_owned_base(self, models):
        model = next(iter(models.values()))
        closed: list[str] = []
        shared = MatrixBackend()
        shared.close = lambda: closed.append("shared")  # type: ignore[method-assign]
        for mode, size in (("thread", 1), ("process", 2)):
            session = AnalysisSession(
                model, backend=shared, pool_mode=mode, pool_size=size, workers=1
            )
            workers = [replica.backend for replica in session.pool.replicas[1:]]
            session.close()
            # Worker replicas are pool-owned; the caller's backend is not.
            assert all(not worker.alive for worker in workers)
        assert closed == []
        named = AnalysisSession(model, workers=1)
        named.backend.close = lambda: closed.append("named")  # type: ignore[method-assign]
        named.close()
        assert closed == ["named"]

    def test_closed_pool_rejects_leases(self, models):
        model = next(iter(models.values()))
        session = AnalysisSession(model, workers=1)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            with session.pool.lease():
                pass  # pragma: no cover

    def test_pool_size_validation(self, models):
        model = next(iter(models.values()))
        with pytest.raises(ValueError, match="pool size"):
            AnalysisSession(model, pool_size=0)

    def test_unbatched_backend_names_the_registered_alternatives(self, models):
        """The refusal names the batched engine to pass instead."""
        model = next(iter(models.values()))
        for engine in (object(), Interpreter()):
            with pytest.raises(TypeError) as excinfo:
                AnalysisSession(model, backend=engine)
            assert str(excinfo.value).endswith("pass a MatrixBackend")

    def test_backend_missing_answer_fails_fast(self, models):
        """A backend that drops a requested packet must raise, not spin."""

        class DroppingBackend(MatrixBackend):
            def output_distributions(self, policy, inputs):
                packets = list(inputs)
                answers = dict(super().output_distributions(policy, packets))
                answers.pop(packets[-1], None)  # violate the contract
                return answers

        model = next(iter(models.values()))
        with AnalysisSession(model, backend=DroppingBackend(), workers=1) as session:
            with pytest.raises(RuntimeError, match="no distribution"):
                session.query_batch(
                    [Query.delivery(p, model.dest) for p in model.ingress_packets[:2]]
                )

    def test_close_drains_active_leases(self, models):
        """close() waits for in-flight leases before tearing backends down."""
        model = next(iter(models.values()))
        session = AnalysisSession(model, workers=1)
        pool = session.pool
        events: list[str] = []
        release = threading.Event()
        leased = threading.Event()

        def hold():
            with pool.lease():
                leased.set()
                release.wait(timeout=5)
                events.append("released")

        holder = threading.Thread(target=hold)
        holder.start()
        assert leased.wait(timeout=5)

        def close():
            session.close()
            events.append("closed")

        closer = threading.Thread(target=close)
        closer.start()
        # The pool is marked closed before its drain waits on the lease.
        assert wait_until(lambda: pool._closed, timeout=5)
        assert "closed" not in events  # still draining the held lease
        release.set()
        holder.join(timeout=5)
        closer.join(timeout=5)
        assert events == ["released", "closed"]

    def test_stats_expose_pool(self, models, all_pairs):
        with process_session(models, 2, workers=2) as session:
            session.query_batch(all_pairs)
            stats = session.stats()
        assert stats["pool"]["size"] == 2
        assert sum(stats["pool"]["leases"]) >= 1
        assert set(stats["pool"]) == {"mode", "size", "dead", "leases", "workers"}


# ---------------------------------------------------------------------------
# Crashes: a failed replica is dead for good; nothing respawns or retries
# ---------------------------------------------------------------------------
from repro.service.pool import (  # noqa: E402 - section-local imports
    PoolUnavailable,
    ReplicaFailure,
)


class _StubBackend(MatrixBackend):
    """A replica backend that records being closed."""

    def __init__(self, family):
        super().__init__()
        family.append(self)
        self.closed = False

    def close(self):
        self.closed = True


class _StubSource:
    """A pool-owned replica source of stubs; ``family`` is every stub it built."""

    mode = "thread"
    owns_replicas = True

    def __init__(self):
        self.family: list[_StubBackend] = []

    def __call__(self, index):
        return _StubBackend(self.family)


def _stub_source():
    """A replica source of stubs, plus the list of every stub it built."""
    source = _StubSource()
    return source, source.family


class _CrashingBackend(MatrixBackend):
    """Raises ReplicaFailure while the bomb is armed."""

    def __init__(self, bomb):
        super().__init__()
        self._bomb = bomb

    def output_distributions(self, policy, inputs):
        if self._bomb["armed"]:
            raise ReplicaFailure("injected replica crash")
        return super().output_distributions(policy, inputs)


class TestSupervision:
    def test_failed_replica_leaves_the_rotation(self):
        """A failure marks the replica that served dead (replica 0, the
        lowest free one); later leases go to the survivor, and the corpse
        is closed only with the pool."""
        spawn, family = _stub_source()
        pool = BackendPool(spawn, 2)
        with pytest.raises(ReplicaFailure):
            with pool.lease() as replica:
                failed = replica.index
                raise ReplicaFailure("backend fell over", exit_code=-9)
        assert failed == 0
        assert pool.stats()["dead"] == [failed]
        for _ in range(3):
            with pool.lease() as replica:
                assert replica.index != failed
        assert pool.stats()["leases"] == [1, 3]
        assert [backend.closed for backend in family] == [False, False]
        (report,) = [r for r in pool.worker_reports() if r["dead"]]
        assert (report["index"], report["exit_code"]) == (failed, -9)
        pool.close()
        assert len(family) == 2 and all(backend.closed for backend in family)

    def test_unrespawnable_pool_goes_dead_and_unavailable(self):
        """With its one replica dead, a pool's leases fail typed instead
        of hanging."""
        pool = BackendPool(_stub_source()[0], 1)
        with pytest.raises(ReplicaFailure):
            with pool.lease():
                raise ReplicaFailure("backend fell over")
        assert pool.stats()["dead"] == [0]
        with pytest.raises(PoolUnavailable):
            with pool.lease():
                pass  # pragma: no cover
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(0):
                pass  # pragma: no cover
        pool.close()

    def test_lease_each_skips_dead_slots(self):
        pool = BackendPool(_stub_source()[0], 3)
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(1):
                raise ReplicaFailure("backend fell over")
        visited = pool.for_each(lambda replica: replica.index)
        assert list(visited) == [0, 2]
        pool.close()

    def test_double_failure_in_one_lease_quarantines_once(self):
        """A second failure in the lease that already took its replica out
        of the rotation changes nothing: the first failure is the record."""
        pool = BackendPool(_stub_source()[0], 2)
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(1) as replica:
                pool._mark_dead(replica, ReplicaFailure("first", exit_code=-9))
                raise ReplicaFailure("second", exit_code=1)
        assert pool.stats()["dead"] == [1]
        assert (pool.replicas[1].last_error, pool.replicas[1].exit_code) == ("first", -9)
        pool.close()

    def test_last_replica_dying_wakes_waiting_leases(self):
        """A lease waiting for the only replica raises PoolUnavailable
        when that replica dies, instead of waiting forever."""
        pool = BackendPool(_stub_source()[0], 1)
        outcome: list[BaseException] = []

        def wait_for_lease():
            try:
                with pool.lease():
                    pass  # pragma: no cover
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                outcome.append(exc)

        with pytest.raises(ReplicaFailure):
            with pool.lease():
                waiter = threading.Thread(target=wait_for_lease)
                waiter.start()
                assert not wait_until(lambda: outcome, timeout=0.2)  # it waits
                raise ReplicaFailure("backend fell over")
        waiter.join(timeout=10)
        assert [type(exc) for exc in outcome] == [PoolUnavailable]
        pool.close()


class TestSessionCrash:
    def test_a_crashed_group_fails_and_the_pool_empties(self, models):
        """Thread mode: the one replica failing fails that call; the
        session's next call finds no replica left."""
        model = next(iter(models.values()))
        bomb = {"armed": True}
        backend = _CrashingBackend(bomb)
        packet = model.ingress_packets[0]
        with AnalysisSession(model, backend=backend, workers=1) as session:
            with pytest.raises(ReplicaFailure, match="injected replica crash"):
                session.query("delivery", packet, model.dest)
            bomb["armed"] = False
            with pytest.raises(PoolUnavailable):
                session.query("delivery", packet, model.dest)
            assert session.pool.stats()["dead"] == [0]
