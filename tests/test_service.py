"""Tests for the query service (``repro.service``)."""

from __future__ import annotations

import json
import random
import re
import sys
import threading

import pytest

from repro.analysis import (
    expected_value,
    hop_count_cdf,
    output_distribution,
    resilience_table,
)
from repro.analysis.queries import delivery_probability
from repro.core.packet import Packet
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.backends import MatrixBackend
from repro.service import AnalysisSession, Query, ResultSet, ShardExecutor
from repro.service.cli import main as service_main
from repro.topology import fat_tree


def ecmp_model(topo, dest: int, failure_probability: float | None = 1 / 1000,
               count_hops: bool = False):
    failable = downward_failable_ports(topo) if failure_probability else None
    failure = (
        independent_failure_program(failable, failure_probability)
        if failure_probability
        else None
    )
    return build_model(
        topo,
        routing=ecmp_policy(topo, dest),
        dest=dest,
        failure=failure,
        failable=failable,
        count_hops=count_hops,
    )


@pytest.fixture(scope="module")
def topo():
    return fat_tree(4)


@pytest.fixture(scope="module")
def models(topo):
    return {dest: ecmp_model(topo, dest) for dest in (1, 2)}


@pytest.fixture(scope="module")
def all_pairs(models):
    return [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
class TestShardExecutor:
    def test_map_preserves_order(self):
        with ShardExecutor(workers=4) as executor:
            assert executor.map(lambda x: x * x, list(range(20))) == [
                x * x for x in range(20)
            ]

    def test_pool_is_persistent_and_lazy(self):
        executor = ShardExecutor(workers=2)
        assert not executor.started
        executor.map(lambda x: x, [1])  # single item: runs inline
        assert not executor.started
        executor.map(lambda x: x, [1, 2, 3])
        assert executor.started
        pool = executor._pool
        executor.map(lambda x: x, [4, 5, 6])
        assert executor._pool is pool  # reused, not restarted
        executor.close()
        assert not executor.started
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(lambda x: x, [1, 2])

    def test_sequential_mode_never_starts_a_pool(self):
        executor = ShardExecutor(workers=1)
        assert executor.map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]
        assert not executor.started
        executor.close()

    def test_a_failed_item_is_raised_after_the_rest_have_finished(self):
        """A group that fails first must not leave the others running on
        shard threads (holding their leases) once ``map`` has returned."""
        running, returned = threading.Event(), threading.Event()
        saw_map_return = []

        def group(item):
            if item == 0:
                running.wait(timeout=10)
                raise ValueError("group 0 failed")
            running.set()
            # Ends when map returns or, when map waits for it, at the timeout.
            saw_map_return.append(returned.wait(timeout=0.5))
            return item

        with ShardExecutor(workers=2) as executor:
            try:
                with pytest.raises(ValueError, match="group 0"):
                    executor.map(group, [0, 1])
            finally:
                returned.set()
        assert saw_map_return == [False]

    def test_the_first_failure_in_item_order_is_raised(self):
        later_failed = threading.Event()

        def group(item):
            if item == 1:
                later_failed.set()
                raise KeyError("group 1")
            later_failed.wait(timeout=10)
            raise ValueError("group 0")

        with ShardExecutor(workers=2) as executor:
            with pytest.raises(ValueError, match="group 0"):
                executor.map(group, [0, 1])


# ---------------------------------------------------------------------------
# Sessions: agreement with the single-threaded analysis entry points
# ---------------------------------------------------------------------------
class TestSessionAgreement:
    @pytest.mark.parametrize("backend", [MatrixBackend], ids=["matrix"])
    def test_concurrent_batch_matches_per_call_analysis(
        self, models, all_pairs, backend
    ):
        with AnalysisSession(
            models=models.values(), backend=backend(), workers=4
        ) as session:
            results = session.query_batch(all_pairs)
            assert len(results) == len(all_pairs)
            for result in results:
                model = models[result.query.dest]
                expected = delivery_probability(
                    model, inputs=[result.query.ingress]
                )
                assert result.value == pytest.approx(expected, abs=1e-9)

    def test_distribution_and_hops_kinds(self, topo):
        model = ecmp_model(topo, 1, count_hops=True)
        with AnalysisSession(model, workers=2) as session:
            packet = model.ingress_packets[0]
            dist = session.query("distribution", packet)
            reference = output_distribution(model, inputs=[packet])
            assert dist.close_to(reference, tolerance=1e-9)
            hops = session.query("hops", packet)
            expected = expected_value(
                reference,
                value=lambda out: out.get(model.hops_field),
                condition=lambda out: out.get("sw") == model.dest,
            )
            assert hops == pytest.approx(expected, abs=1e-9)

    def test_hops_requires_counter(self, models):
        with AnalysisSession(models[1], workers=1) as session:
            with pytest.raises(ValueError, match="count_hops=True"):
                session.query("hops", models[1].ingress_packets[0])

    def test_query_coercion_forms(self, models):
        model = models[1]
        sw, pt = model.ingress_packets[0].get("sw"), model.ingress_packets[0].get("pt")
        with AnalysisSession(model, workers=1) as session:
            via_tuple = session.query("delivery", (sw, pt), 1)
            via_packet = session.query("delivery", Packet({"sw": sw, "pt": pt}), 1)
            via_default = session.query("delivery", {"sw": sw, "pt": pt})
            assert via_tuple == via_packet == via_default

    def test_delivery_honors_model_predicate(self, models):
        # A model with a stricter delivered-predicate than sw == dest:
        # the session must follow it, exactly like delivery_probability.
        import dataclasses

        from repro.core import syntax as s

        model = models[1]
        strict = dataclasses.replace(
            model, delivered=s.conj(model.delivered, s.test("pt", 1))
        )
        packet = model.ingress_packets[0]
        with AnalysisSession(strict, workers=1) as session:
            served = session.query("delivery", packet, 1)
        expected = delivery_probability(strict, inputs=[packet])
        assert served == pytest.approx(expected, abs=1e-9)
        # pt is erased to 0 at egress, so the strict predicate never holds —
        # a hardcoded sw == dest check would wrongly report ~1.0 here.
        assert served == pytest.approx(0.0, abs=1e-9)

    def test_delivery_probabilities_matches_model(self, models):
        model = models[1]
        with AnalysisSession(model, workers=2) as session:
            served = session.delivery_probabilities()
        direct = model.delivery_probabilities()
        assert set(served) == set(direct)
        for packet, probability in direct.items():
            assert served[packet] == pytest.approx(probability, abs=1e-9)


# ---------------------------------------------------------------------------
# A batch is one backend call per destination, on the caller's thread
# ---------------------------------------------------------------------------
class _RecordingBackend(MatrixBackend):
    """A matrix backend that logs (policy, packets, thread) per batched call."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple[object, list, int]] = []

    def output_distributions(self, policy, inputs):
        packets = list(inputs)
        self.calls.append((policy, packets, threading.get_ident()))
        return super().output_distributions(policy, packets)


class TestOneCallPerDestination:
    def test_thread_mode_batch_is_one_call_per_destination_on_the_caller(
        self, models
    ):
        batch = [
            Query.delivery(packet, dest)
            for dest, model in models.items()
            for packet in model.ingress_packets
        ]
        batch += batch[::3]  # duplicates, answered once per occurrence
        random.Random(7).shuffle(batch)
        first_seen = list(dict.fromkeys(query.dest for query in batch))
        backend = _RecordingBackend()
        with AnalysisSession(
            models=models.values(), backend=backend, workers=4
        ) as session:
            result = session.query_batch(batch)
        # Every backend call on the calling thread, and exactly one per
        # destination, in first-appearance order.
        assert {thread for _policy, _packets, thread in backend.calls} == {
            threading.get_ident()
        }
        assert [policy for policy, _packets, _thread in backend.calls] == [
            models[dest].policy for dest in first_seen
        ]
        # One report per destination, in first-appearance order.
        assert [report.dest for report in result.shards] == first_seen
        assert [report.index for report in result.shards] == list(range(len(first_seen)))
        assert sum(report.queries for report in result.shards) == len(batch)
        # Every occurrence answered, in the caller's order.
        assert [answer.query for answer in result] == batch
        for answer in result:
            expected = delivery_probability(
                models[answer.query.dest], inputs=[answer.query.ingress]
            )
            assert answer.value == pytest.approx(expected, abs=1e-9)
            assert result.shards[answer.shard].dest == answer.query.dest


# ---------------------------------------------------------------------------
# Sessions: caching
# ---------------------------------------------------------------------------
class TestSessionCache:
    def test_repeated_batches_hit_cache(self, models, all_pairs):
        with AnalysisSession(models=models.values(), workers=1) as session:
            first = session.query_batch(all_pairs)
            assert first.cache_hits == 0
            second = session.query_batch(all_pairs)
            assert second.cache_hits == len(all_pairs)
            assert second.values == first.values
            # Per-shard reports agree with the batch totals.
            assert sum(report.cache_hits for report in second.shards) == len(all_pairs)

    def test_overlapping_batch_hits_partially(self, models, all_pairs):
        with AnalysisSession(models=models.values(), workers=1) as session:
            half = all_pairs[: len(all_pairs) // 2]
            session.query_batch(half)
            full = session.query_batch(all_pairs)
            assert full.cache_hits == len(half)

    def test_kinds_share_one_distribution_entry(self, models):
        model = models[1]
        packet = model.ingress_packets[0]
        with AnalysisSession(model, workers=1) as session:
            session.query("distribution", packet)
            # A different kind on the same pair reuses the cached distribution.
            result = session.query_batch([Query.delivery(packet, model.dest)])
            assert result.cache_hits == 1

    def test_clear_cache(self, models, all_pairs):
        with AnalysisSession(models=models.values(), workers=1) as session:
            session.query_batch(all_pairs)
            session.clear_cache()
            again = session.query_batch(all_pairs)
            assert again.cache_hits == 0

    def test_cache_disabled(self, models, all_pairs):
        with AnalysisSession(models=models.values(), workers=1, cache=False) as session:
            session.query_batch(all_pairs)
            again = session.query_batch(all_pairs)
            assert again.cache_hits == 0

    def test_canonical_key_shares_entries_across_equal_models(self, topo):
        # Two separately built (distinct-object, semantically equal) models:
        # the canonical-FDD key makes the second model's batch a pure cache hit.
        first = ecmp_model(topo, 1)
        second = ecmp_model(topo, 1)
        assert first.policy is not second.policy
        with AnalysisSession(first, workers=1) as session:
            session.query_batch(
                [Query.delivery(packet, 1) for packet in first.ingress_packets]
            )
            session.add_model(second, default=True)
            results = session.query_batch(
                [Query.delivery(packet, None) for packet in second.ingress_packets]
            )
            assert results.cache_hits == len(second.ingress_packets)

    def test_duplicate_queries_in_one_batch(self, models):
        model = models[1]
        packet = model.ingress_packets[0]
        batch = [Query.delivery(packet, 1)] * 3
        with AnalysisSession(model, workers=1) as session:
            results = session.query_batch(batch)
            assert len(results) == 3
            assert len({result.value for result in results}) == 1


# ---------------------------------------------------------------------------
# Sessions: analysis entry-point integration (the session as backend=)
# ---------------------------------------------------------------------------
class TestAnalysisIntegration:
    def test_output_distribution_session_kwarg(self, models):
        model = models[1]
        with AnalysisSession(model, workers=1) as session:
            packet = model.ingress_packets[0]
            via_session = output_distribution(model, inputs=[packet], backend=session)
            direct = output_distribution(model, inputs=[packet])
            assert via_session.close_to(direct, tolerance=1e-9)

    def test_backend_and_session_conflict(self, models):
        # A session is an engine: it is passed as backend=, and there is
        # no session= to pass next to another engine.
        model = models[1]
        with AnalysisSession(model, workers=1) as session:
            with pytest.raises(TypeError, match="session"):
                output_distribution(
                    model,
                    inputs=[model.ingress_packets[0]],
                    backend=MatrixBackend(),
                    session=session,
                )

    def test_hop_cdf_session_kwarg(self, topo):
        model = ecmp_model(topo, 1, count_hops=True)
        with AnalysisSession(model, workers=1) as session:
            via_session = hop_count_cdf(model, max_hops=8, backend=session)
        assert via_session == pytest.approx(hop_count_cdf(model, max_hops=8), abs=1e-9)

    def test_resilience_table_session_kwarg(self, topo):
        def factory(scheme, bound):
            return ecmp_model(topo, 1, failure_probability=None)

        with AnalysisSession(model_factory=lambda dest: ecmp_model(topo, dest)) as session:
            table = resilience_table(factory, ["ecmp"], [0], backend=session)
            reference = resilience_table(factory, ["ecmp"], [0])
        assert table == reference

    def test_resilience_sweep_caches_verdicts(self, topo):
        built = []

        def factory(scheme, bound):
            model = ecmp_model(topo, 1, failure_probability=None)
            built.append(model)
            return model

        with AnalysisSession(model_factory=lambda dest: ecmp_model(topo, dest)) as session:
            sweep = session.resilience_sweep(factory, ["ecmp"], [0, 1])
        assert sweep == {"ecmp": {0: True, 1: True}}

    def test_lazy_reexport(self):
        import repro.analysis as analysis

        assert analysis.AnalysisSession is AnalysisSession
        with pytest.raises(AttributeError):
            analysis.NoSuchThing


# ---------------------------------------------------------------------------
# Session lifecycle and result sets
# ---------------------------------------------------------------------------
class TestLifecycleAndResults:
    def test_closed_session_rejects_queries(self, models):
        session = AnalysisSession(models[1], workers=1)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.query_batch([Query.delivery(models[1].ingress_packets[0], 1)])
        # The engine-protocol surfaces refuse too: a closed session must
        # not silently restart resources close() released.
        with pytest.raises(RuntimeError, match="closed"):
            session.output_distribution(models[1], models[1].ingress_packets[0])
        with pytest.raises(RuntimeError, match="closed"):
            session.certainly_delivers(models[1])
        with pytest.raises(RuntimeError, match="closed"):
            session.warm()
        session.close()  # idempotent

    def test_unknown_destination(self, models):
        with AnalysisSession(models[1], workers=1) as session:
            with pytest.raises(KeyError, match="no model for destination"):
                session.model_for(99)

    def test_default_requires_explicit_registration(self, topo):
        # Factory-built models never self-promote to the session default:
        # dest=None stays an error until a default is registered explicitly.
        with AnalysisSession(model_factory=lambda d: ecmp_model(topo, d)) as session:
            built = session.model_for(2)
            with pytest.raises(KeyError, match="no default model"):
                session.model_for(None)
            session.add_model(built, default=True)
            assert session.model_for(None) is built

    def test_close_only_tears_down_owned_backends(self, models):
        shared = MatrixBackend()
        closes: list[int] = []
        shared.close = lambda: closes.append(1)  # type: ignore[method-assign]
        with AnalysisSession(models[1], backend=shared, workers=1) as session:
            session.query_batch([Query.delivery(models[1].ingress_packets[0], 1)])
        assert closes == []  # caller-supplied instance: caller closes it

        owned = AnalysisSession(models[1], workers=1)
        assert owned._owns_backend
        owned.close()

    def test_close_drains_slow_inflight_shard(self, models):
        """Regression: close() racing a batch must drain it, not poison it.

        ``close()`` used to flip ``_closed`` *before* draining the
        executor, so a shard that had not yet reached ``_distributions``
        when the flag flipped died with "session is closed" and the whole
        in-flight ``query_batch`` failed nondeterministically.  Teardown
        now rejects new batches first, runs every in-flight shard to
        completion, and only then tears the pool down.
        """
        import threading as _threading

        from repro.backends import MatrixBackend

        class SlowBackend(MatrixBackend):
            started = _threading.Event()
            release = _threading.Event()

            def output_distributions(self, policy, inputs):
                self.started.set()
                # The first shard stalls mid-lease until close() has begun.
                self.release.wait(timeout=10.0)
                return super().output_distributions(policy, inputs)

        backend = SlowBackend()
        # workers=1 runs shards inline — the hardest drain case, because the
        # executor has no thread pool close() could wait on.
        session = AnalysisSession(
            models=models.values(), backend=backend, pool_size=1, workers=1
        )
        batch = [
            Query.delivery(packet, dest)
            for dest, model in models.items()
            for packet in model.ingress_packets
        ]
        outcome: dict = {}

        def serve():
            try:
                outcome["result"] = session.query_batch(batch)
            except Exception as exc:
                outcome["error"] = exc

        thread = _threading.Thread(target=serve)
        thread.start()
        assert SlowBackend.started.wait(timeout=10.0)
        closer = _threading.Thread(target=session.close)
        closer.start()
        # close() is now committed to the drain; let the slow shard go.
        SlowBackend.release.set()
        thread.join(timeout=30.0)
        closer.join(timeout=30.0)
        assert not thread.is_alive() and not closer.is_alive()
        assert "error" not in outcome, f"in-flight batch died: {outcome.get('error')}"
        assert len(outcome["result"]) == len(batch)
        # After the drain the session really is closed.
        with pytest.raises(RuntimeError, match="closed"):
            session.query_batch(batch)

    def test_needs_some_model_source(self):
        with pytest.raises(ValueError, match="at least one model"):
            AnalysisSession()

    def test_prism_backend_rejected(self, models):
        """A PRISM-style engine answers point probabilities, not batches."""

        class ProbabilityOnly:
            def probability(self, policy, packet, target):  # pragma: no cover
                raise AssertionError("a refused backend is never asked")

        with pytest.raises(TypeError, match="ProbabilityOnly does not support batched"):
            AnalysisSession(models[1], backend=ProbabilityOnly())

    def test_result_set_json_roundtrip(self, models, tmp_path):
        model = models[1]
        packet = model.ingress_packets[0]
        with AnalysisSession(model, workers=1) as session:
            results = session.query_batch(
                [Query.delivery(packet, 1), Query.distribution(packet, 1)]
            )
        path = tmp_path / "results.json"
        results.dump(str(path))
        payload = json.loads(path.read_text())
        assert payload["queries"] == 2
        assert payload["results"][0]["value"] == pytest.approx(1.0, abs=1e-6)
        assert isinstance(payload["results"][1]["value"], dict)
        assert payload["shards"]

    def test_result_set_accessors(self, models):
        model = models[1]
        packets = model.ingress_packets[:3]
        batch = [Query.delivery(packet, 1) for packet in packets]
        with AnalysisSession(model, workers=1) as session:
            results = session.query_batch(batch)
        assert isinstance(results, ResultSet)
        assert len(results) == 3
        assert results.value(batch[0]) == results[0].value
        assert [r.query for r in results] == batch
        assert results.by_kind("delivery") == results.results
        with pytest.raises(KeyError):
            results.value(Query.delivery((99, 99), 1))

    def test_stats_counters(self, models, all_pairs):
        with AnalysisSession(models=models.values(), workers=1) as session:
            session.query_batch(all_pairs)
            stats = session.stats()
        assert stats["queries"] == len(all_pairs)
        assert stats["batches"] == 1
        assert stats["shards"] >= 1
        assert stats["backend"] == "MatrixBackend"

    def test_counts_survive_concurrent_batches(self, models):
        """Batches served from many threads lose no count: the registry
        series that ``stats()`` reads back are updated under their locks."""
        model = models[1]
        batch = [Query.delivery(packet, 1) for packet in model.ingress_packets[:2]]
        threads, rounds = 8, 25
        with AnalysisSession(model, workers=1) as session:
            session.warm()

            def serve():
                for _ in range(rounds):
                    session.query_batch(batch)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=serve) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            stats = session.stats()
        assert stats["batches"] == threads * rounds
        assert stats["queries"] == stats["shards"] * len(batch) == threads * rounds * len(batch)

    def test_warm_makes_batches_pure_hits(self, models):
        model = models[1]
        with AnalysisSession(model, workers=1) as session:
            session.warm()
            results = session.query_batch(
                [Query.delivery(packet, 1) for packet in model.ingress_packets]
            )
            assert results.cache_hits == len(model.ingress_packets)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServiceCli:
    def test_all_pairs_run(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = service_main(
            [
                "--topology",
                "fattree:4",
                "--scheme",
                "ecmp",
                "--dest",
                "1",
                "--all-pairs",
                "--workers",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["queries"] == 14
        assert all(
            result["value"] == pytest.approx(1.0, abs=1e-6)
            for result in payload["results"]
        )
        printed = capsys.readouterr().out
        assert "served 14 queries" in printed
        # The stats line surfaces the solver counters of the replica pool.
        match = re.search(
            r"solver: (\d+) factorization\(s\), (\d+) growth step\(s\) on a solved chain, "
            r"(\d+) row\(s\) assembled",
            printed,
        )
        assert match is not None
        assert int(match.group(1)) >= 1
        assert int(match.group(3)) > 0

    def test_solver_line_carries_the_compile_counters(self, capsys):
        code = service_main(
            ["--topology", "fattree:4", "--scheme", "ecmp", "--failure-prob", "0.001",
             "--dest", "1", "--all-pairs", "--workers", "1"]
        )
        assert code == 0
        match = re.search(
            r"compile: (\d+) leaf action\(s\) composed, (\d+) role template\(s\), "
            r"(\d+) switch diagram\(s\) renamed from one",
            capsys.readouterr().out,
        )
        assert match is not None
        # The loop body's seven roles; the first hop runs in the do-while loop
        # stage.  The plan is per role; the session's plan key builds the
        # whole body diagram, which renames each of the 20 switches once.
        assert tuple(map(int, match.groups())) == (47, 7, 20)

    def test_batch_file_run(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                {
                    "queries": [
                        {"kind": "delivery", "ingress": [2, 3], "dest": 1},
                        {"kind": "hops", "ingress": [2, 3], "dest": 1},
                    ]
                }
            )
        )
        out = tmp_path / "results.json"
        code = service_main(
            [
                "--queries",
                str(batch),
                "--workers",
                "1",
                "--repeat",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["queries"] == 2
        # The second --repeat pass is served entirely from the cache.
        assert payload["cache_hits"] == 2

    def test_pool_size_run(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        args = [
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
            "--output",
            str(out),
        ]
        # Thread mode serves from its one in-process replica...
        with pytest.raises(SystemExit, match="--pool-mode process"):
            service_main(args + ["--pool-size", "2"])
        code = service_main(args + ["--pool-size", "1"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["queries"] == 28
        # ...which serves both destination shards.
        assert {shard["replica"] for shard in payload["shards"]} == {0}
        assert [shard["dest"] for shard in payload["shards"]] == [1, 2]
        assert all(shard["pool_mode"] == "thread" for shard in payload["shards"])
        assert "-hosted replicas" not in capsys.readouterr().out

    def test_pool_size_rejected(self):
        with pytest.raises(SystemExit, match="pool-size"):
            service_main(["--all-pairs", "--pool-size", "0"])

    def test_empty_batch_rejected(self):
        with pytest.raises(SystemExit, match="no queries"):
            service_main(["--workers", "1"])

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit, match="unknown topology"):
            service_main(["--topology", "torus:3", "--all-pairs"])
