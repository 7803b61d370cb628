"""Tests for the batched matrix backend, engine arguments, and batched solver APIs."""

from fractions import Fraction

import pytest

from repro.analysis.latency import expected_hop_count, hop_count_cdf
from repro.analysis.queries import delivery_probability, output_distribution
from repro.analysis.resilience import resilience_table
import repro.backends
from repro.backends import MatrixBackend
from repro.core import syntax as s
from repro.core.compiler import compile_policy
from repro.core.distributions import Dist
from repro.core.fdd.matrix import (
    SymbolicPacket,
    classify,
    enumerate_classes,
    fdd_to_matrix,
    matrix_to_fdd,
)
from repro.core.fdd.node import FddManager
from repro.core.fdd.node import output_distribution as fdd_output_distribution
from repro.core.interpreter import Interpreter
from repro.core.markov import solve_absorption_batched
from repro.core.packet import DROP, Packet
from repro.failure.models import independent_failure_program
from repro.network import running_example as ex
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy, f10_model
from repro.service import AnalysisSession
from repro.topology import ab_fat_tree, fat_tree

from oracles import solve_absorption_reference


@pytest.fixture(scope="module")
def example():
    return ex.build()


class ProbabilityOnly:
    """A PRISM-style engine: point probabilities, no distributions or verdicts."""

    def probability(self, policy, packet, target):  # pragma: no cover
        raise AssertionError("a refused backend is never asked")


def fattree_model(failure_probability=None):
    topo = fat_tree(4)
    failable = downward_failable_ports(topo) if failure_probability else None
    failure = (
        independent_failure_program(failable, failure_probability)
        if failure_probability
        else None
    )
    return build_model(
        topo,
        routing=ecmp_policy(topo, 1),
        dest=1,
        failure=failure,
        failable=failable,
    )


class TestBatchedAbsorption:
    """solve_absorption_batched: one factorization, many right-hand sides."""

    CHAIN = {
        "a": {"b": 0.5, "drop": 0.5},
        "b": {"a": 0.25, "done": 0.75},
    }

    def test_result_matches_unbatched_solver(self):
        transient = ["a", "b"]
        absorbing = ["done", "drop"]
        batched = solve_absorption_batched(transient, absorbing, self.CHAIN).result()
        _, _, plain = solve_absorption_reference(transient, absorbing, self.CHAIN)
        for state in transient:
            for target in absorbing:
                assert batched[state].get(target, 0.0) == pytest.approx(
                    plain[state].get(target, 0.0), abs=1e-12
                )

    def test_multi_rhs_solve_against_cached_factorization(self):
        import numpy as np

        system = solve_absorption_batched(["a", "b"], ["done", "drop"], self.CHAIN)
        rhs = np.eye(2)
        fundamental = system.solve(rhs)  # N = (I - Q)^{-1}
        # Expected number of visits from 'a' to itself: 1 / (1 - 0.5*0.25).
        assert fundamental[0, 0] == pytest.approx(1.0 / (1.0 - 0.125))
        assert system.solve(np.ones((2, 5))).shape == (2, 5)

    def test_rhs_shape_validated(self):
        import numpy as np

        system = solve_absorption_batched(["a", "b"], ["done", "drop"], self.CHAIN)
        with pytest.raises(ValueError):
            system.solve(np.ones((3, 1)))

    def test_doomed_states_reported(self):
        transitions = {"a": {"done": 1.0}, "spin": {"spin2": 1.0}, "spin2": {"spin": 1.0}}
        system = solve_absorption_batched(["a", "spin", "spin2"], ["done"], transitions)
        assert set(system.doomed) == {"spin", "spin2"}
        result = system.result()
        assert result.lost_mass["spin"] == 1.0
        assert result["a"]["done"] == pytest.approx(1.0)

    def test_empty_transient(self):
        result = solve_absorption_batched([], ["done"], {}).result()
        assert result == {}


def figure5_fdd(manager: FddManager):
    """pt=1 ? (pt<-2 ⊕ pt<-3) : pt=2 ? pt<-1 : pt=3 ? pt<-1 : drop."""
    from repro.core.fdd import ops

    split = ops.convex(
        manager,
        [
            (manager.from_assign("pt", 2), Fraction(1, 2)),
            (manager.from_assign("pt", 3), Fraction(1, 2)),
        ],
    )
    return ops.ite(
        manager.from_test("pt", 1),
        split,
        ops.ite(
            manager.from_test("pt", 2),
            manager.from_assign("pt", 1),
            ops.ite(manager.from_test("pt", 3), manager.from_assign("pt", 1), manager.false_leaf),
        ),
    )


class TestSeededConversion:
    """fdd_to_matrix restricted to the classes reachable from seeds."""

    def test_seeded_exploration_matches_full_domain(self):
        manager = FddManager()
        fdd = figure5_fdd(manager)
        full = fdd_to_matrix(fdd)
        seeded = fdd_to_matrix(fdd, seeds=[SymbolicPacket({"pt": 1})])
        assert set(seeded.classes) <= set(full.classes)
        for cls in seeded.classes:
            assert seeded.row(cls) == full.row(cls)

    def test_seeded_exploration_skips_unreachable_classes(self):
        manager = FddManager()
        fdd = figure5_fdd(manager)
        seeded = fdd_to_matrix(fdd, seeds=[SymbolicPacket({"pt": 2})])
        # 2 -> 1 -> {2, 3} closes the reachable set without the wildcard.
        assert SymbolicPacket({"pt": None}) not in seeded.classes
        assert len(seeded.classes) == 3

    def test_absorbing_when_freezes_classes(self):
        manager = FddManager()
        fdd = figure5_fdd(manager)
        frozen = SymbolicPacket({"pt": 2})
        seeded = fdd_to_matrix(
            fdd,
            seeds=[SymbolicPacket({"pt": 1})],
            absorbing_when=lambda cls: cls == frozen,
        )
        assert seeded.row(frozen) == Dist.point(frozen)

    def test_roundtrip_through_matrix_to_fdd(self):
        manager = FddManager()
        fdd = figure5_fdd(manager)
        matrix = fdd_to_matrix(fdd)
        rows = {cls: matrix.row(cls) for cls in matrix.classes}
        rebuilt = matrix_to_fdd(manager, matrix.domains, rows)
        for value in (1, 2, 3, 9):
            packet = Packet({"pt": value})
            assert fdd_output_distribution(fdd, packet).close_to(
                fdd_output_distribution(rebuilt, packet)
            )

    def test_compiled_policy_roundtrip(self):
        """Round trip of a compiled multi-field policy preserves semantics."""
        manager = FddManager()
        policy = s.seq(
            s.ite(s.test("sw", 1), s.assign("pt", 2), s.assign("pt", 9)),
            s.choice((s.assign("sw", 2), Fraction(1, 3)), (s.skip(), Fraction(2, 3))),
        )
        fdd = compile_policy(policy, manager=manager)
        matrix = fdd_to_matrix(fdd)
        rows = {cls: matrix.row(cls) for cls in matrix.classes}
        rebuilt = matrix_to_fdd(manager, matrix.domains, rows)
        for packet in (Packet({"sw": 1, "pt": 1}), Packet({"sw": 7, "pt": 2})):
            assert fdd_output_distribution(fdd, packet).close_to(
                fdd_output_distribution(rebuilt, packet)
            )


class TestWideDomains:
    """Wide domains must not hit the Python recursion limit (iterative loops)."""

    WIDTH = 5000

    def test_enumerate_classes_wide_domain(self):
        classes = enumerate_classes({"sw": range(self.WIDTH)})
        assert len(classes) == self.WIDTH + 1

    def test_matrix_to_fdd_wide_chain(self):
        manager = FddManager()
        domains = {"sw": tuple(range(self.WIDTH))}
        rows = {
            SymbolicPacket({"sw": value}): Dist.point(SymbolicPacket({"sw": 0}))
            for value in range(self.WIDTH)
        }
        node = matrix_to_fdd(manager, domains, rows)
        out = fdd_output_distribution(node, Packet({"sw": self.WIDTH - 1}))
        assert out == Dist.point(Packet({"sw": 0}))
        assert fdd_output_distribution(node, Packet({"sw": self.WIDTH + 7})) == Dist.point(DROP)


class TestRegistry:
    """Engines are instances: there are no backend names to look up."""

    def test_registered_names(self, example):
        # The package exports the float engine; the exact one is
        # Interpreter(exact=True).  PRISM is a source export
        # (repro.backends.prism), not an engine.
        assert repro.backends.__all__ == ["MatrixBackend", "QueryPlan"]
        with pytest.raises(TypeError, match="str does not support"):
            output_distribution(example.naive, inputs=[example.ingress_packet], backend="prism")

    def test_unknown_backend_rejected(self, example):
        """A name, even one that used to select an engine, is refused."""
        model = example.models_naive["f0"]
        for name in ("matrix", "umfpack"):
            with pytest.raises(TypeError, match="str does not support distribution"):
                output_distribution(model, inputs=[example.ingress_packet], backend=name)
            with pytest.raises(TypeError, match="str does not support resilience"):
                resilience_table(lambda scheme, bound: None, ["x"], [0], backend=name)
        with pytest.raises(TypeError, match="str does not support batched"):
            AnalysisSession(fattree_model(None), backend="matrix")

    def test_matrix_backend_is_float_only(self):
        # No exact mode to ask for: exact solving is Interpreter(exact=True).
        with pytest.raises(TypeError, match="exact"):
            MatrixBackend(exact=True)


class TestMatrixBackendEquivalence:
    """The acceptance bar: matrix ≡ interpreter within 1e-9."""

    def test_running_example_all_models(self, example):
        interp = Interpreter()
        backend = MatrixBackend()
        models = list(example.models_naive.items()) + list(example.models_resilient.items())
        for _, model in models:
            expected = interp.run_packet(model, example.ingress_packet)
            actual = backend.output_distribution(model, example.ingress_packet)
            assert expected.close_to(actual, tolerance=1e-9)

    @pytest.mark.parametrize("failure_probability", [None, 1 / 1000], ids=["f0", "f1000"])
    def test_fattree4_per_ingress(self, failure_probability):
        model = fattree_model(failure_probability)
        expected = model.output_distributions(interpreter=Interpreter())
        backend = MatrixBackend()
        actual = backend.output_distributions(model.policy, model.ingress_packets)
        for packet in model.ingress_packets:
            assert expected[packet].close_to(actual[packet], tolerance=1e-9)

    def test_one_factorization_for_all_ingresses(self):
        model = fattree_model(1 / 1000)
        backend = MatrixBackend()
        backend.output_distributions(model.policy, model.ingress_packets)
        stages = backend.plan(model.policy).loop_stages
        assert stages and all(stage.factorizations == 1 for stage in stages)
        # Re-querying hits the cached solutions: no new factorization.
        backend.output_distributions(model.policy, model.ingress_packets)
        assert all(stage.factorizations == 1 for stage in stages)

    def test_warm_presolves_ingress_union(self):
        model = fattree_model(1 / 1000)
        backend = MatrixBackend().warm(model.policy, model.ingress_packets)
        stages = backend.plan(model.policy).loop_stages
        assert stages and all(stage.factorizations == 1 for stage in stages)
        # Slice-wise queries after warming are pure cache hits.
        backend.output_distributions(model.policy, model.ingress_packets[:3])
        assert all(stage.factorizations == 1 for stage in stages)

    def test_incremental_growth_factorizes_only_new_states(self):
        """New seeds solve only the state-space growth (gateway composition).

        The loop stage's incremental solver must factorize the subsystem
        of newly discovered classes only — classes solved for an earlier
        ingress act as absorbing gateways — and repeated seeds must not
        factorize at all.
        """
        model = fattree_model(1 / 1000)
        backend = MatrixBackend()
        first = model.ingress_packets[:1]
        backend.output_distributions(model.policy, first)
        stage = backend.plan(model.policy).loop_stages[0]
        assert stage.factorizations == 1
        solved_initially = len(stage.solver.solved_states)
        assert solved_initially > 0

        backend.output_distributions(model.policy, model.ingress_packets)
        assert stage.factorizations == 2
        solved_total = len(stage.solver.solved_states)
        growth = solved_total - solved_initially
        assert growth > 0
        # The second factorization covered at most the growth, never the
        # already-solved system (doomed states may shrink it further).
        assert stage.solver.system is not None
        assert len(stage.solver.system.transient) <= growth

        # Results agree with a from-scratch solve of the full ingress set.
        fresh = MatrixBackend()
        expected = fresh.output_distributions(model.policy, model.ingress_packets)
        actual = backend.output_distributions(model.policy, model.ingress_packets)
        assert stage.factorizations == 2  # pure cache hits, no new factorization
        for packet in model.ingress_packets:
            assert expected[packet].close_to(actual[packet], tolerance=1e-9)

    def test_small_growth_is_one_more_counted_step(self):
        """Growing a warmed plan is one more step, counted as growth of a
        solved chain, and agrees with a from-scratch backend."""
        model = fattree_model(1 / 1000)
        backend = MatrixBackend()
        backend.output_distributions(model.policy, model.ingress_packets[:1])
        stage = backend.plan(model.policy).loop_stages[0]
        assert (stage.factorizations, stage.schur_updates) == (1, 0)
        solved = len(stage.solver.solved_states)

        actual = backend.output_distributions(model.policy, model.ingress_packets)
        assert len(stage.solver.solved_states) > solved  # genuine growth
        assert (stage.factorizations, stage.schur_updates) == (2, 1)

        fresh = MatrixBackend()
        expected = fresh.output_distributions(model.policy, model.ingress_packets)
        for packet in model.ingress_packets:
            assert expected[packet].close_to(actual[packet], tolerance=1e-9)

    def test_solver_stats_aggregates_counters(self):
        model = fattree_model(1 / 1000)
        backend = MatrixBackend()
        backend.output_distributions(model.policy, model.ingress_packets[:1])
        stats = backend.solver_stats()
        assert (stats["factorizations"], stats["schur_updates"]) == (1, 0)
        assert stats["assembly_rows"] > 0
        backend.output_distributions(model.policy, model.ingress_packets)
        grown = backend.solver_stats()
        assert (grown["factorizations"], grown["schur_updates"]) == (2, 1)

    def test_uniform_and_dist_inputs(self, example):
        model = example.models_resilient["f2"]
        native = Interpreter()
        backend = MatrixBackend()
        packets = [example.ingress_packet]
        assert native.output_distribution(model, packets).close_to(
            backend.output_distribution(model, packets), tolerance=1e-9
        )
        dist = Dist.point(example.ingress_packet)
        assert native.output_distribution(model, dist).close_to(
            backend.output_distribution(model, dist), tolerance=1e-9
        )

    def test_classify_concretize_consistency(self, example):
        """Entry classes contain their concrete entry packets."""
        backend = MatrixBackend()
        model = example.models_resilient["f1"]
        backend.output_distribution(model, example.ingress_packet)
        (stage,) = backend.plan(model).loop_stages
        cls = classify(example.ingress_packet, stage.domains)
        assert all(
            cls.value(field) in (value, None)
            for field, value in example.ingress_packet.items()
            if field in stage.domains
        )


class TestOneDeliveredPredicate:
    """A model may name its switch field anything: every path reads ``model.delivered``."""

    @pytest.fixture(scope="class")
    def model(self):
        topo = fat_tree(4)
        failable = downward_failable_ports(topo)
        return build_model(
            topo,
            routing=ecmp_policy(topo, 1, sw_field="node"),
            dest=1,
            failure=independent_failure_program(failable, 1 / 100, sw_field="node"),
            failable=failable,
            count_hops=True,
            sw_field="node",
        )

    def test_backend_model_session_and_interpreter_agree(self, model):
        from repro.service import AnalysisSession, Query

        oracle = Interpreter(compile_bodies=False)
        delivered = Packet({"node": 1, "pt": 0})
        want = {
            packet: float(
                oracle.run_packet(model.policy, packet).prob_of(
                    lambda out: out is not DROP and out.restrict(["node", "pt"]) == delivered
                )
            )
            for packet in model.ingress_packets
        }
        assert 0.9 < min(want.values()) < 1.0  # neither of the answers a wrong field gives
        backend = MatrixBackend()
        with AnalysisSession(models=[model]) as session:
            answers = session.query_batch(
                [Query.delivery(packet, 1) for packet in model.ingress_packets]
            )
            hops = session.query_batch([Query.hops(model.ingress_packets[0], 1)]).values[0]
        for got in (
            backend.delivery_probabilities(model),
            model.delivery_probabilities(),
            dict(zip(model.ingress_packets, answers.values)),
        ):
            assert got == pytest.approx(want, abs=1e-9)
        assert not backend.certainly_delivers(model) and not model.certainly_delivers()
        # Hop counts are conditioned on the same predicate.
        assert expected_hop_count(model, backend=backend) == pytest.approx(
            expected_hop_count(model), abs=1e-9
        )
        assert 2.0 <= hops <= 4.5

    def test_certain_delivery_without_failures(self):
        topo = fat_tree(4)
        model = build_model(
            topo, routing=ecmp_policy(topo, 1, sw_field="node"), dest=1, sw_field="node"
        )
        assert MatrixBackend().certainly_delivers(model) and model.certainly_delivers()
        assert set(MatrixBackend().delivery_probabilities(model).values()) == {1.0}


class TestOneCertaintyVerdict:
    """Certain delivery is decided one way, by the model's structural analysis."""

    def test_a_loss_below_any_float_tolerance_is_not_certain_delivery(self):
        # One failure at 1e-10: every ingress delivers with 1 - 1e-10, which
        # a solved probability held to a 1e-9 tolerance took for one.
        model = f10_model(
            ab_fat_tree(4), 1, scheme="f10_0",
            failure_probability=Fraction(1, 10**10), max_failures=1,
        )
        backend = MatrixBackend()
        assert 1 - 1e-9 <= min(backend.delivery_probabilities(model).values()) < 1
        assert model.certainly_delivers() is False
        assert backend.certainly_delivers(model) is False
        table = resilience_table(lambda scheme, k: model, ["f10_0"], [1], backend=backend)
        assert table == {"f10_0": {1: False}}
        with AnalysisSession(models=[model]) as session:
            assert session.certainly_delivers(model) is False


class TestBackendThreading:
    """backend= reaches the analysis entry points."""

    def test_output_distribution_backend_matches_default(self, example):
        model = example.models_naive["f2"]
        packets = [example.ingress_packet]
        default = output_distribution(model, inputs=packets)
        matrix = output_distribution(model, inputs=packets, backend=MatrixBackend())
        assert default.close_to(matrix, tolerance=1e-9)

    def test_delivery_probability_backend(self):
        model = fattree_model(1 / 1000)
        default = delivery_probability(model)
        matrix = delivery_probability(model, backend=MatrixBackend())
        assert matrix == pytest.approx(default, abs=1e-9)

    def test_hop_count_queries_backend(self):
        topo = fat_tree(4)
        failable = downward_failable_ports(topo)
        model = build_model(
            topo,
            routing=ecmp_policy(topo, 1),
            dest=1,
            failure=independent_failure_program(failable, 1 / 100),
            failable=failable,
            count_hops=True,
        )
        backend = MatrixBackend()
        assert hop_count_cdf(model, max_hops=8, backend=backend) == pytest.approx(
            hop_count_cdf(model, max_hops=8), abs=1e-9
        )
        assert expected_hop_count(model, backend=backend) == pytest.approx(
            expected_hop_count(model), abs=1e-9
        )

    def test_exact_with_float_backend_rejected(self, example):
        with pytest.raises(ValueError, match="exact-mode backend instance"):
            output_distribution(
                example.models_naive["f0"],
                inputs=[example.ingress_packet],
                exact=True,
                backend=MatrixBackend(),
            )
        # A float-mode interpreter is rejected too: only an
        # exact-configured instance qualifies.
        with pytest.raises(ValueError, match="exact-mode backend instance"):
            output_distribution(
                example.models_naive["f0"],
                inputs=[example.ingress_packet],
                exact=True,
                backend=Interpreter(),
            )

    def test_exact_with_exact_backend_allowed(self, example):
        model = example.models_naive["f1"]
        exact_backend = Interpreter(exact=True)
        dist = output_distribution(
            model,
            inputs=[example.ingress_packet],
            exact=True,
            backend=exact_backend,
        )
        reference = output_distribution(
            model, inputs=[example.ingress_packet], exact=True
        )
        assert all(isinstance(prob, (Fraction, int)) for _, prob in dist.items())
        assert dist.close_to(reference, tolerance=0)

    def test_prism_backend_rejected_for_distribution_queries(self, example):
        with pytest.raises(TypeError, match="ProbabilityOnly does not support distribution"):
            output_distribution(
                example.models_naive["f0"],
                inputs=[example.ingress_packet],
                backend=ProbabilityOnly(),
            )

    def test_prism_backend_rejected_for_resilience_queries(self):
        with pytest.raises(TypeError, match="ProbabilityOnly does not support resilience"):
            resilience_table(lambda scheme, bound: None, ["x"], [0], backend=ProbabilityOnly())

    def test_interpreter_and_backend_conflict(self):
        # The interpreter is an engine like the others: it is passed as
        # backend=, and there is no interpreter= to pass it twice.
        model = build_model(
            fat_tree(4), routing=ecmp_policy(fat_tree(4), 1), dest=1, count_hops=True
        )
        with pytest.raises(TypeError, match="interpreter"):
            hop_count_cdf(model, backend=MatrixBackend(), interpreter=Interpreter())
        assert hop_count_cdf(model, backend=Interpreter()) == hop_count_cdf(model)

    def test_resilience_table_backend_agrees_with_structural(self):
        def factory(scheme, bound):
            return fattree_model(1 / 1000 if scheme == "faulty" else None)

        schemes = ["healthy", "faulty"]
        exact = resilience_table(factory, schemes, [None])
        numeric = resilience_table(factory, schemes, [None], backend=MatrixBackend())
        native = resilience_table(factory, schemes, [None], backend=Interpreter())
        assert exact == numeric == native
        assert exact["healthy"][None] is True
        assert exact["faulty"][None] is False
