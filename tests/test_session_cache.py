"""The session result cache under the plan-token layout.

A plan's structural key is hashed once per policy object (when it is
interned to a small integer token) and never per query; the properties
the structural key buys — semantically equal policies share entries, all
replicas share one cache — are unchanged.  Also the companion lifetime
rule: LU factors are freed on the thread that created them, so clearing
solver state from another thread leaks nothing.  No test here reads a
clock.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.backends import MatrixBackend
from repro.core.distributions import Dist
from repro.core.markov import solve_absorption_batched
from repro.core.packet import Packet
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import AnalysisSession, Query
from repro.topology import edge_switches, fat_tree


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
def models(topo):
    return {dest: ecmp_model(topo, dest) for dest in edge_switches(topo)[:3]}


@pytest.fixture(scope="module")
def all_pairs(models):
    return [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]


class CountingKey:
    """A stand-in structural plan key that counts how often it is hashed."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self) -> int:
        self.hashes += 1
        return 7

    def __eq__(self, other: object) -> bool:
        return other is self


class CountingKeyBackend(MatrixBackend):
    """Answers every packet with a point mass; its plan key counts hashes."""

    def __init__(self):
        super().__init__()
        self.key = CountingKey()
        self.solved = 0

    def plan_key(self, policy) -> CountingKey:
        return self.key

    def output_distributions(self, policy, inputs):
        packets = list(inputs)
        self.solved += len(packets)
        return {packet: Dist.point(packet) for packet in packets}


class TestPlanKeyHashedOncePerPolicy:
    @pytest.mark.parametrize("size", [20, 200])
    def test_hash_count_independent_of_batch_size(self, models, size):
        model = next(iter(models.values()))
        backend = CountingKeyBackend()
        batch = [
            Query.distribution(Packet({"sw": sw, "pt": 1})) for sw in range(size)
        ]
        with AnalysisSession(model, backend=backend, workers=1) as session:
            missed = session.query_batch(batch)
            assert missed.cache_hits == 0 and backend.solved == size
            session.clear_cache(keep_plans=True)
            session.query_batch(batch)
            assert backend.solved == 2 * size
            hit = session.query_batch(batch)
            assert hit.cache_hits == size and backend.solved == 2 * size
            assert session.stats()["cached_distributions"] == size
        # One hash, when the policy object was interned — not one (let
        # alone four) per query, and clear_cache keeps the token.
        assert backend.key.hashes == 1


class TestCacheSharingSemantics:
    def test_equal_models_hit_each_others_entries(self, topo):
        first = ecmp_model(topo, 1)
        second = ecmp_model(topo, 1)
        assert first.policy is not second.policy
        packets = first.ingress_packets
        half = len(packets) // 2
        with AnalysisSession(first, workers=1) as session:
            session.query_batch([Query.delivery(pk) for pk in packets[:half]])
            session.add_model(second, default=True)
            # The second model's policy interns to the first one's token:
            # it is served the first's entries and publishes into the same
            # table...
            served = session.query_batch([Query.delivery(pk) for pk in packets])
            assert served.cache_hits == half
            assert len(session._tokens) == 1 and len(session._rows) == 1
            # ...which the first model then hits in turn.
            session.add_model(first, default=True)
            again = session.query_batch([Query.delivery(pk) for pk in packets])
            assert again.cache_hits == len(packets)
            assert session.stats()["cached_distributions"] == len(packets)

    @pytest.mark.parametrize(
        "mode, replicas", [("thread", 1), ("process", 2)]
    )
    def test_pooled_sessions_agree_and_count_the_same_hits(
        self, models, all_pairs, mode, replicas
    ):
        """Every pool mode counts the same cache hits and answers the k=4
        all-pairs batch with the same distributions (``==``) as a plain
        matrix backend."""
        half = all_pairs[: len(all_pairs) // 2]
        with AnalysisSession(
            models=models.values(),
            pool_mode=mode,
            pool_size=replicas,
            workers=2,
        ) as session:
            hits = [session.query_batch(half).cache_hits]
            hits.append(session.query_batch(all_pairs).cache_hits)
            hits.append(session.query_batch(all_pairs).cache_hits)
            session.clear_cache(keep_plans=True)
            served = session.query_batch(
                [Query.distribution(q.ingress, q.dest) for q in all_pairs]
            )
            hits.append(served.cache_hits)
            cached = session.stats()["cached_distributions"]
            assert session.pool.size == replicas
        assert (hits, cached) == ([0, len(half), len(all_pairs), 0], len(all_pairs))
        # The reference solves each destination in one call, as a session
        # batch does after the solver reset.
        reference = MatrixBackend()
        expected = {}
        for dest, model in models.items():
            ingress = [q.ingress for q in all_pairs if q.dest == dest]
            for packet, dist in reference.output_distributions(model.policy, ingress).items():
                expected[dest, packet] = dist
        for query, value in zip(all_pairs, served.values):
            # Bit for bit: the same masses, not masses within a tolerance.
            assert dict(value.items()) == dict(expected[query.dest, query.ingress].items())

    def test_stats_and_clear_cache_cover_every_table(self, models, all_pairs):
        with AnalysisSession(models=models.values(), workers=1) as session:
            session.query_batch(all_pairs)
            # One table per destination's plan; stats counts across them.
            assert len(session._rows) == len(models)
            assert session.stats()["cached_distributions"] == len(all_pairs)
            assert "repro_cached_distributions %d" % len(all_pairs) in (
                session.metrics_text()
            )
            model = next(iter(models.values()))
            assert session.certainly_delivers(model) is False
            assert len(session._verdicts) == 1
            session.clear_cache()
            assert session.stats()["cached_distributions"] == 0
            assert not session._rows and not session._verdicts
            assert session.query_batch(all_pairs).cache_hits == 0


class TestLuFactorLifetime:
    CHAIN = {
        "a": {"b": 0.5, "drop": 0.5},
        "b": {"a": 0.25, "done": 0.75},
    }

    def test_released_system_raises_instead_of_answering_zero(self):
        system = solve_absorption_batched(["a", "b"], ["done", "drop"], self.CHAIN)
        system.release()
        with pytest.raises(RuntimeError, match="released"):
            system.solve(np.eye(2))
        with pytest.raises(RuntimeError, match="released"):
            system.absorption_matrix()
        with pytest.raises(RuntimeError, match="released"):
            system.result()
        assert system.transient == ["a", "b"]

    def test_release_keeps_the_cached_absorption_matrix(self):
        system = solve_absorption_batched(["a", "b"], ["done", "drop"], self.CHAIN)
        before = system.result()
        system.release()
        assert system.result() == before
        with pytest.raises(RuntimeError, match="released"):
            system.solve(np.eye(2))

    def test_empty_system_never_needed_a_factor(self):
        system = solve_absorption_batched([], ["done"], {})
        assert system.solve(np.zeros((0, 3))).shape == (0, 3)
        assert system.result() == {}

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/status"
    )
    def test_clear_cache_soak_does_not_grow_rss(self, models, all_pairs):
        """Solve on shard threads, clear from this one, 150 times over.

        SciPy's ``SuperLU`` does not free a factorization destroyed on a
        thread other than its creator's; a solver that retained one leaked
        it on every ``clear_cache(keep_plans=True)`` from the caller's
        thread (tens of MiB over this loop).
        """

        def rss_kib() -> int:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
            raise RuntimeError("no VmRSS line")

        with AnalysisSession(models=models.values(), workers=2) as session:
            def one_pass() -> None:
                result = session.query_batch(all_pairs)
                assert result.cache_hits == 0 and len(result.shards) >= 2
                session.clear_cache(keep_plans=True)

            for _ in range(20):
                one_pass()
            before = rss_kib()
            for _ in range(150):
                one_pass()
            grown_mib = (rss_kib() - before) / 1024
        assert grown_mib < 8, f"VmRSS grew {grown_mib:.1f} MiB over 150 passes"
