"""Tests for the PRISM translation: automaton, translation, code generation.

The translated programs run on the explicit-state oracle
(``oracles.MiniDtmc``), exactly, and must answer what the interpreter does.
"""

from fractions import Fraction

import pytest

from repro.backends import MatrixBackend
from repro.backends.prism import to_prism_source, translate_policy
from repro.backends.prism.automaton import (
    build_automaton,
    collapse_basic_blocks,
    control_flow_automaton,
)
from repro.backends.prism.codegen import predicate_to_prism
from repro.core import syntax as s
from repro.core.compiler import GuardedFragmentError
from repro.core.fields import FieldTable
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP, Packet
from repro.network import running_example as ex
from repro.topology import chain_model

from oracles import (
    ExactInferenceBaseline,
    MiniDtmc,
    collapse_basic_blocks_reference,
    eval_guard,
    prism_probability,
)


class TestAutomaton:
    def test_assignment_single_edge(self):
        automaton = build_automaton(s.assign("f", 1))
        assert len(automaton.outgoing(automaton.start)) == 1

    def test_predicate_splits_into_accept_and_reject(self):
        automaton = build_automaton(s.test("f", 1))
        destinations = {edge.dst for edge in automaton.outgoing(automaton.start)}
        assert destinations == {automaton.accept, automaton.reject}

    def test_choice_probabilities_sum_to_one(self):
        automaton = build_automaton(
            s.choice((s.assign("f", 1), Fraction(1, 3)), (s.assign("f", 2), Fraction(2, 3)))
        )
        outgoing = automaton.outgoing(automaton.start)
        assert sum(edge.probability for edge in outgoing) == 1

    def test_while_loop_has_back_edge(self):
        automaton = build_automaton(s.while_do(s.test("f", 0), s.assign("f", 1)))
        # Some state must reach the loop head (the start state) again.
        assert any(edge.dst == automaton.start for edge in automaton.edges if edge.src != automaton.start)

    def test_basic_block_collapsing_reduces_states(self):
        policy = s.seq(*[s.assign(f"x{i}", 1) for i in range(6)])
        automaton = build_automaton(policy)
        # Straight-line code collapses to very few control states.
        assert automaton.state_count <= 4

    def test_union_rejected(self):
        with pytest.raises(GuardedFragmentError):
            build_automaton(s.Union((s.assign("f", 1), s.assign("f", 2))))


def _collapse_cases():
    """Programs the basic-block collapse is held to its reference on."""
    from repro.network.model import build_model
    from repro.routing import ecmp_policy
    from repro.topology import zoo

    example = ex.build()
    cases = {f"chain-{d}": chain_model(d, Fraction(1, 1000)).policy for d in range(1, 9)}
    for name, model in example.models_naive.items():
        cases[f"naive-{name}"] = model
    for name, model in example.models_resilient.items():
        cases[f"resilient-{name}"] = model
    abilene = zoo.load("abilene")
    cases["abilene"] = build_model(
        abilene, ecmp_policy(abilene, 1), dest=1, count_hops=True
    ).policy
    return cases


class TestBasicBlockCollapse:
    """One worklist pass gives the automaton the rescanning collapse gave."""

    @pytest.fixture(scope="class")
    def cases(self):
        return {
            name: control_flow_automaton(policy) for name, policy in _collapse_cases().items()
        }

    def test_same_automaton_as_the_reference(self, cases):
        for name, raw in cases.items():
            fast, slow = collapse_basic_blocks(raw), collapse_basic_blocks_reference(raw)
            assert fast.edges == slow.edges, name  # the same edges, in the same order
            assert (fast.start, fast.accept, fast.reject, fast.state_count) == (
                slow.start, slow.accept, slow.reject, slow.state_count
            ), name

    def test_edge_visits_are_linear_in_the_edges(self, cases):
        # A count, not a time: the rescanning collapse visited every edge
        # once per merge, ~1 000 times each on the d = 8 chain.  A merge
        # copies its successor's edges, so the edges out count too.
        for name, raw in cases.items():
            collapsed = collapse_basic_blocks(raw)
            assert collapsed.visits <= 3 * (len(raw.edges) + len(collapsed.edges)), name


class TestTranslation:
    def test_model_is_well_formed(self):
        model = translate_policy(s.ite(s.test("f", 0), s.assign("f", 1), s.drop()))
        model.check_well_formed()
        assert "pc" in model.variable_names()

    def test_field_bounds_cover_mentioned_values(self):
        model = translate_policy(s.assign("f", 7))
        assert model.variable("f").high >= 7

    def test_labels_added(self):
        model = translate_policy(s.assign("f", 1), delivered=s.test("f", 1))
        assert set(model.labels) == {"terminated", "dropped", "delivered"}

    def test_explicit_field_table(self):
        table = FieldTable()
        table.declare("f", 0, 9)
        model = translate_policy(s.assign("f", 1), fields=table)
        assert model.variable("f").high == 9


class TestCodegen:
    def test_source_structure(self):
        source = to_prism_source(
            translate_policy(
                s.ite(s.test("f", 0), s.assign("f", 1), s.drop()), delivered=s.test("f", 1)
            )
        )
        assert source.startswith("dtmc")
        assert "module program" in source
        assert 'label "delivered"' in source
        assert "endmodule" in source

    def test_predicate_rendering(self):
        pred = s.conj(s.test("sw", 1), s.neg(s.test("pt", 2)))
        assert predicate_to_prism(pred) == "(sw=1 & !(pt=2))"

    def test_probabilities_rendered_as_fractions(self):
        source = to_prism_source(
            translate_policy(
                s.choice((s.assign("f", 1), Fraction(1, 3)), (s.assign("f", 2), Fraction(2, 3)))
            )
        )
        assert "1/3" in source and "2/3" in source


class TestEngine:
    def test_eval_guard(self):
        assert eval_guard(s.test("pc", 3), {"pc": 3})
        assert not eval_guard(s.conj(s.test("pc", 3), s.test("f", 1)), {"pc": 3, "f": 0})

    def test_terminal_distribution_simple_choice(self):
        policy = s.choice((s.assign("f", 1), Fraction(1, 4)), (s.assign("f", 2), Fraction(3, 4)))
        model = translate_policy(policy)
        engine = MiniDtmc(model)
        dist = engine.terminal_distribution(overrides={"f": 0})
        prob_f1 = sum(mass for state, mass in dist.items() if dict(state).get("f") == 1)
        assert prob_f1 == Fraction(1, 4)

    def test_probability_of_loop_outcome(self):
        loop = s.while_do(s.test("f", 0), s.choice((s.assign("f", 1), 0.5), (s.skip(), 0.5)))
        assert prism_probability(loop, Packet({"f": 0}), s.test("f", 1)) == 1

    def test_dropped_packets_not_counted_as_delivered(self):
        policy = s.seq(s.test("f", 1), s.assign("g", 1))
        prob = prism_probability(policy, Packet({"f": 0, "g": 0}), s.test("g", 1))
        assert prob == 0


class TestAgainstNativeBackend:
    """The translated program and the native interpreter agree on whole models."""

    @pytest.fixture(scope="class")
    def example(self):
        return ex.build()

    @pytest.mark.parametrize("failure", ["f0", "f1", "f2"])
    @pytest.mark.parametrize("scheme", ["naive", "resilient"])
    def test_running_example_delivery_probability(self, example, scheme, failure):
        model = (example.models_naive if scheme == "naive" else example.models_resilient)[failure]
        delivered = s.conj(s.test("sw", 2), s.test("pt", 2))
        native = Interpreter(exact=True).run_packet(model, example.ingress_packet)
        native_prob = native.prob_of(
            lambda o: o is not DROP and o.get("sw") == 2 and o.get("pt") == 2
        )
        prism_prob = prism_probability(model, example.ingress_packet, delivered)
        assert prism_prob == native_prob

    def test_chain_model_agreement(self):
        """Figure 10's chains, d = 1..4: the translated program, the exact
        interpreter and the closed form ``(1 - p/2)^d`` are equal as
        ``Fraction``s; the matrix backend and the Bayonet-style baseline
        agree with them within 1e-9."""
        p = Fraction(1, 1000)
        for diamonds in range(1, 5):
            chain = chain_model(diamonds, p)
            expected = (1 - p / 2) ** diamonds

            def delivered(o):
                return o is not DROP and o.get("sw") == 4 * diamonds

            native = Interpreter(exact=True).run_packet(chain.policy, chain.ingress)
            assert native.prob_of(delivered) == expected
            prism = prism_probability(chain.policy, chain.ingress, chain.delivered)
            assert prism == expected
            matrix = MatrixBackend().output_distribution(chain.policy, chain.ingress)
            assert float(matrix.prob_of(delivered)) == pytest.approx(float(expected), abs=1e-9)
            baseline = ExactInferenceBaseline().delivery_probability(
                chain.policy, chain.ingress, chain.delivered
            )
            assert baseline == pytest.approx(float(expected), abs=1e-9)
