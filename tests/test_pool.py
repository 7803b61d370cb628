"""Tests for the backend replica pool (``repro.service.pool``) and the
cross-manager (spec-based) cache-key semantics it depends on."""

from __future__ import annotations

import os
import threading
import time

import pytest

from polling import wait_until
from repro.analysis.queries import delivery_probability
from repro.backends import MatrixBackend
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
    @pytest.mark.parametrize("planner", ["destination", "ingress:4", "round-robin:3"])
    def test_pool_matches_single_and_per_call(
        self, models, all_pairs, per_call_values, planner
    ):
        """Pool of N answers the all-pairs batch identically (≤1e-9) to a
        pool of 1 and to per-call ``repro.analysis`` results."""
        with AnalysisSession(
            models=models.values(), planner=planner, workers=1, pool_size=1
        ) as single:
            baseline = single.query_batch(all_pairs).values
        with process_session(models, 3, planner=planner, workers=4) as pooled:
            served = pooled.query_batch(all_pairs).values
        for value, reference, expected in zip(served, baseline, per_call_values):
            assert value == pytest.approx(reference, abs=1e-9)
            assert value == pytest.approx(expected, abs=1e-9)

    def test_cached_repeat_leases_no_replica(self, models, all_pairs):
        with process_session(models, 2, workers=4) as session:
            session.query_batch(all_pairs)
            repeat = session.query_batch(all_pairs)
            assert repeat.cache_hits == len(all_pairs)
            # Fully cached shards never touch a replica.
            assert all(report.replica == -1 for report in repeat.shards)

    def test_results_cached_across_replicas(self, models, all_pairs):
        """A hit computed on one replica serves queries headed anywhere."""
        with process_session(models, 3, workers=1) as session:
            first = session.query_batch(all_pairs, planner="destination")
            assert first.cache_hits == 0
            # Different planner, different shard->replica routing: still
            # answered entirely from the shared session cache.
            second = session.query_batch(all_pairs, planner="round-robin:3")
            assert second.cache_hits == len(all_pairs)

    def test_local_pools_report_placement_defaults(self, models):
        """Both pool modes report the pid hosting each replica."""
        model = next(iter(models.values()))
        with AnalysisSession(model, workers=2) as session:
            assert session.pool.stats()["workers"] == [os.getpid()]
        with process_session({model.dest: model}, 1, workers=1) as session:
            (pid,) = session.pool.stats()["workers"]
            (report,) = session.pool.worker_reports()
            assert pid != os.getpid()
            assert (report["pid"], report["health"]) == (pid, "healthy")


# ---------------------------------------------------------------------------
# Affinity routing, work stealing, and lease exclusivity
# ---------------------------------------------------------------------------
class TestRouting:
    def test_affinity_sticks_sequentially(self, models, all_pairs):
        # workers=1: shards run one at a time, so the preferred replica is
        # always free and affinity routing is perfectly sticky.
        with process_session(models, 2, workers=1, cache=False) as session:
            first = session.query_batch(all_pairs)
            serving = {r.label: r.replica for r in first.shards}
            again = session.query_batch(all_pairs)
            assert {r.label: r.replica for r in again.shards} == serving
            assert session.pool.steals == 0
            # Destinations spread over both replicas.
            assert len(set(serving.values())) == 2

    def test_idle_replica_steals_bound_affinity(self):
        pool = BackendPool(_stub_source()[0], 2)
        with pool.lease(("dest", 7)) as holder:
            bound = holder.index
            grabbed: list[int] = []

            def contend():
                with pool.lease(("dest", 7)) as thief:
                    grabbed.append(thief.index)

            thread = threading.Thread(target=contend)
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive()
        # The preferred replica was busy and the other was idle: the
        # idle one must have served the request (no waiting) — but the
        # binding stays with the warm replica, so concurrent shards of
        # one destination cannot ping-pong it across the pool.
        assert grabbed and grabbed[0] != bound
        assert pool.steals == 1
        assert pool.stats()["affinities"][("dest", 7)] == bound
        pool.close()

    def test_leases_are_exclusive_under_contention(self):
        pool = BackendPool(_stub_source()[0], 2)
        active = [0, 0]
        guard = threading.Lock()
        failures: list[str] = []

        def hammer():
            for _ in range(25):
                with pool.lease() as replica:
                    with guard:
                        active[replica.index] += 1
                        if active[replica.index] > 1:
                            failures.append(f"double lease of {replica.index}")
                    time.sleep(0.0005)
                    with guard:
                        active[replica.index] -= 1

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert sum(replica.leases for replica in pool.replicas) == 150
        pool.close()

    def test_shard_windows_overlap(self, models, all_pairs):
        """The acceptance check: shard wall-clock windows overlap, i.e.
        no shard waited out another replica's solve before starting."""
        with process_session(models, 3, workers=4) as session:
            result = session.query_batch(all_pairs)
        solved = [r for r in result.shards if r.replica >= 0]
        assert len({r.replica for r in solved}) > 1
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
        assert all(not stage.solutions for stage in plan.loop_stages)
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
        from repro.backends.matrix import _class_sort_key

        model = next(iter(models.values()))
        backend = MatrixBackend()
        backend.output_distributions(model.policy, model.ingress_packets)
        (stage,) = backend.plan(model.policy).loop_stages
        # The incrementally maintained seed order equals a full sort.
        assert stage.seed_order == sorted(stage._seeds, key=_class_sort_key)
        assert all(cls in stage._sort_keys for cls in stage._seeds)
        # Concretisation is memoised per (class, input packet).
        packet = model.ingress_packets[0]
        cls = next(iter(stage.solutions))
        assert stage.concretize(cls, packet) is stage.concretize(cls, packet)


# ---------------------------------------------------------------------------
# Lifecycle and degradation
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_thread_mode_hosts_one_replica(self, models):
        model = next(iter(models.values()))
        with pytest.raises(ValueError, match="pool_mode='process'"):
            AnalysisSession(model, backend="native", pool_size=4, workers=2)
        with AnalysisSession(model, backend="native", workers=2) as session:
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
        named = AnalysisSession(model, backend="matrix", workers=1)
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
        """The refusal names exactly the registered batched backends."""
        model = next(iter(models.values()))
        with pytest.raises(TypeError) as excinfo:
            AnalysisSession(model, backend="prism")
        assert str(excinfo.value).endswith("use 'matrix' or 'native'")

    def test_backend_missing_answer_fails_fast(self, models):
        """A backend that drops a requested packet must raise, not spin."""

        class DroppingBackend:
            exact = False

            def __init__(self):
                self.inner = MatrixBackend()

            def output_distributions(self, policy, inputs):
                packets = list(inputs)
                answers = dict(self.inner.output_distributions(policy, packets))
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
        assert isinstance(stats["pool"]["affinities"], dict)


# ---------------------------------------------------------------------------
# Elastic resizing (the streaming autoscaler's knob)
# ---------------------------------------------------------------------------
class TestResize:
    def test_grow_spawns_independent_replicas(self, models, all_pairs, per_call_values):
        with process_session(models, 1, workers=4) as session:
            before = session.query_batch(all_pairs).values
            assert session.resize_pool(3) == 3
            assert session.pool_size == 3
            pids = {replica.backend.pid for replica in session.pool.replicas}
            assert len(pids) == 3
            session.clear_cache(keep_plans=True)
            after = session.query_batch(all_pairs).values
        for value, reference, expected in zip(after, before, per_call_values):
            assert value == pytest.approx(reference, abs=1e-9)
            assert value == pytest.approx(expected, abs=1e-9)

    def test_shrink_retires_tails_and_their_affinities(self, models, all_pairs):
        with process_session(models, 3, workers=1) as session:
            pool = session.pool
            # workers=1 routes shards sequentially: affinities bind across
            # all three replicas (one destination each).
            session.query_batch(all_pairs, planner="destination")
            assert {pool._affinity[key] for key in pool._affinity} == {0, 1, 2}
            retired = [replica.backend for replica in pool.replicas[1:]]
            assert session.resize_pool(1) == 1
            assert [replica.index for replica in pool.replicas] == [0]
            assert all(not worker.alive for worker in retired)
            # No affinity entry may point at a retired replica index.
            assert all(index == 0 for index in pool._affinity.values())
            # The survivor still answers the whole batch correctly.
            session.clear_cache(keep_plans=True)
            repeat = session.query_batch(all_pairs)
            assert all(report.replica == 0 for report in repeat.shards)

    def test_shrink_waits_for_busy_tail(self):
        pool = BackendPool(_stub_source()[0], 2)
        release = threading.Event()
        leased = threading.Event()
        events: list[str] = []

        def hold_tail():
            with pool.lease_replica(1):
                leased.set()
                release.wait(timeout=5)
                events.append("released")

        holder = threading.Thread(target=hold_tail)
        holder.start()
        assert leased.wait(timeout=5)

        def shrink():
            pool.resize(1)
            events.append("shrunk")

        shrinker = threading.Thread(target=shrink)
        shrinker.start()
        # The shrink parks on the pool condition until the tail drains.
        assert wait_until(lambda: pool._cv._waiters, timeout=5)
        assert "shrunk" not in events and pool.size == 2
        release.set()
        holder.join(timeout=5)
        shrinker.join(timeout=5)
        assert events == ["released", "shrunk"]
        assert pool.size == 1
        pool.close()

    def test_resize_validation_and_non_forkable_cap(self, models):
        model = next(iter(models.values()))
        with AnalysisSession(model, workers=1) as session:
            with pytest.raises(ValueError, match="pool size"):
                session.resize_pool(0)
            # The in-process replica is the only one thread mode hosts.
            with pytest.raises(ValueError, match="pool_mode='process'"):
                session.resize_pool(3)
            assert session.pool_size == 1
        session = AnalysisSession(model, workers=1, pool_size=1)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.resize_pool(2)

    def test_grow_under_concurrent_serving(self, models, all_pairs, per_call_values):
        """resize() during in-flight query_batch calls never corrupts answers."""
        with process_session(models, 1, workers=4) as session:
            errors: list[Exception] = []
            outputs: list[list[float]] = []

            def serve():
                try:
                    for _ in range(3):
                        session.clear_cache(keep_plans=True)
                        outputs.append(session.query_batch(all_pairs).values)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            server = threading.Thread(target=serve)
            server.start()
            for size in (2, 3, 2):
                session.resize_pool(size)
            server.join(timeout=60)
            assert not errors
            assert len(outputs) == 3
        for values in outputs:
            for value, expected in zip(values, per_call_values):
                assert value == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Supervision: quarantine, probe, in-place respawn, permanent death
# ---------------------------------------------------------------------------
from repro.service.pool import (  # noqa: E402 - section-local imports
    DEAD,
    HEALTHY,
    PoolUnavailable,
    ReplicaFailure,
)


class _StubBackend:
    """An in-memory replica backend whose probe can be made to answer."""

    def __init__(self, family, *, pingable=False):
        self.family = family
        self.family.append(self)
        self.pingable = pingable
        self.closed = False

    def ping(self):
        if not self.pingable:
            raise RuntimeError("stub is dead")
        return {"pid": 0}

    def close(self):
        self.closed = True


def _stub_source(*, pingable=False, replaceable=True, gate=None):
    """A replica source of stubs, plus the list of every stub it built.

    ``replaceable=False`` refuses every replacement (permanent death);
    a ``gate`` event holds replacements until it is set.
    """
    family: list[_StubBackend] = []

    def spawn(index, dead):
        if dead is not None:
            if not replaceable:
                return None
            if gate is not None:
                gate.wait(timeout=10)
        return _StubBackend(family, pingable=pingable)

    return spawn, family


class _CrashingBackend:
    """Wraps a real backend; raises ReplicaFailure while the bomb is armed.

    "Disarm after the first crash" models a single failure the in-process
    replica recovers from, while a bomb that never disarms models a
    replica that keeps dying.
    """

    def __init__(self, inner, bomb):
        self._inner = inner
        self._bomb = bomb

    def output_distributions(self, policy, inputs):
        if self._bomb["armed"]:
            if self._bomb.get("once"):
                self._bomb["armed"] = False
            raise ReplicaFailure("injected replica crash", kind="crash")
        return self._inner.output_distributions(policy, inputs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSupervision:
    def test_failure_respawns_in_place_and_keeps_affinity(self):
        spawn, family = _stub_source()
        pool = BackendPool(spawn, 2)
        first = pool.replicas[1].backend
        with pytest.raises(ReplicaFailure):
            with pool.lease(("dest", 7)) as replica:
                bound = replica.index
                raise ReplicaFailure("backend fell over")
        assert wait_until(lambda: pool.replicas[bound].health == HEALTHY, timeout=10)
        stats = pool.stats()
        assert stats["failures"] == 1
        assert stats["restarts"] == 1
        assert stats["health"] == [HEALTHY, HEALTHY]
        # A fresh backend sits at the same index; the corpse was closed
        # and the affinity binding survived the swap.
        replaced = pool.replicas[bound].backend
        assert replaced is not first or bound == 0
        assert stats["affinities"][("dest", 7)] == bound
        dead = [b for b in family if b.closed]
        assert len(dead) == 1
        pool.close()

    def test_transient_blip_revives_without_respawn(self):
        pool = BackendPool(_stub_source(pingable=True)[0], 2)
        survivor = pool.replicas[0].backend
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(0):
                raise ReplicaFailure("transport blip")
        # The probe answered: same backend object, healthy, no restart.
        assert pool.replicas[0].health == HEALTHY
        assert pool.replicas[0].backend is survivor
        assert pool.failures == 1
        assert pool.restarts == 0
        pool.close()

    def test_timeout_failure_skips_the_probe(self):
        """A watchdog kill is death by definition — even a backend whose
        ping would succeed is respawned, not revived."""
        pool = BackendPool(_stub_source(pingable=True)[0], 2)
        victim = pool.replicas[1].backend
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(1):
                raise ReplicaFailure("hung and killed", kind="timeout")
        assert wait_until(lambda: pool.replicas[1].health == HEALTHY, timeout=10)
        assert pool.replicas[1].backend is not victim
        assert pool.restarts == 1
        pool.close()

    def test_unrespawnable_pool_goes_dead_and_unavailable(self):
        """When no replacement can be built, the replica dies for good:
        affinities unbind and leases fail typed instead of hanging."""
        pool = BackendPool(_stub_source(replaceable=False)[0], 1)
        with pytest.raises(ReplicaFailure):
            with pool.lease(("dest", 3)):
                raise ReplicaFailure("backend fell over")
        assert wait_until(lambda: pool.replicas[0].health == DEAD, timeout=10)
        assert pool.stats()["affinities"] == {}
        with pytest.raises(PoolUnavailable):
            with pool.lease():
                pass  # pragma: no cover
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(0):
                pass  # pragma: no cover
        pool.close()

    def test_lease_each_skips_dead_slots(self):
        pool = BackendPool(_stub_source(replaceable=False)[0], 3)
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(1):
                raise ReplicaFailure("backend fell over")
        assert wait_until(lambda: pool.replicas[1].health == DEAD, timeout=10)
        visited = pool.for_each(lambda replica: replica.index)
        assert list(visited) == [0, 2]
        pool.close()

    def test_double_failure_in_one_lease_quarantines_once(self):
        # The gate keeps the respawn in flight while the second failure
        # of the same lease arrives: it must not re-quarantine the slot.
        gate = threading.Event()
        pool = BackendPool(_stub_source(gate=gate)[0], 2)
        with pytest.raises(ReplicaFailure):
            with pool.lease_replica(1) as replica:
                pool._quarantine(replica, ReplicaFailure("first"))
                raise ReplicaFailure("second")
        gate.set()
        assert wait_until(lambda: pool.replicas[1].health == HEALTHY, timeout=10)
        assert pool.failures == 1
        assert pool.restarts == 1
        pool.close()


class TestSessionRetry:
    def test_crashed_shard_is_retried_transparently(self, models, all_pairs):
        """One replica crash mid-batch: the shard re-runs once the replica
        is back, answers stay exact, and the retry is counted."""
        model = next(iter(models.values()))
        bomb = {"armed": True, "once": True}
        backend = _CrashingBackend(MatrixBackend(), bomb)
        batch = [Query.delivery(p, model.dest) for p in model.ingress_packets]
        with AnalysisSession(
            model, backend=backend, workers=1, max_attempts=2
        ) as session:
            result = session.query_batch(batch)
            expected = delivery_probability(model, inputs=[model.ingress_packets[0]])
            assert result.values[0] == pytest.approx(expected, abs=1e-9)
            assert session.retried_shards == 1
            assert session.stats()["retried_shards"] == 1
            assert session.pool.failures == 1

    def test_exhausted_retries_surface_pool_unavailable(self, models):
        model = next(iter(models.values()))
        bomb = {"armed": True}  # never disarms: the replica keeps dying
        backend = _CrashingBackend(MatrixBackend(), bomb)
        with AnalysisSession(
            model, backend=backend, workers=1, max_attempts=2
        ) as session:
            with pytest.raises(PoolUnavailable, match="retries exhausted"):
                session.query("delivery", model.ingress_packets[0], model.dest)
            assert session.pool.failures >= 2

    def test_max_attempts_validation(self, models):
        model = next(iter(models.values()))
        with pytest.raises(ValueError, match="max_attempts"):
            AnalysisSession(model, max_attempts=0)
