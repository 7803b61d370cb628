"""Tests for the analysis helpers and the exact-inference baseline."""

from fractions import Fraction

import pytest

from repro.analysis import (
    delivery_probability,
    expected_hop_count,
    expected_value,
    field_distribution,
    hop_count_cdf,
    hop_count_distribution,
    output_distribution,
)
from repro.analysis.latency import hop_count_series
from repro.analysis.resilience import (
    compare_schemes,
    format_refinement_table,
    format_resilience_table,
    refinement_table,
    resilience_table,
)
from repro.core import syntax as s
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP, Packet
from repro.routing import ecmp_policy, f10_model
from repro.network.model import build_model
from repro.topology import ab_fat_tree, chain_model

from oracles import ExactInferenceBaseline, UnrollLimitExceeded


@pytest.fixture(scope="module")
def abft():
    return ab_fat_tree(4)


@pytest.fixture(scope="module")
def ecmp_model(abft):
    return build_model(abft, ecmp_policy(abft, 1), dest=1, count_hops=True)


class TestQueries:
    def test_delivery_probability_of_failure_free_model(self, ecmp_model):
        assert delivery_probability(ecmp_model) == pytest.approx(1.0)

    def test_delivery_probability_requires_predicate_for_bare_policies(self):
        with pytest.raises(ValueError):
            delivery_probability(s.assign("sw", 1))

    def test_output_distribution_uniform_over_ingress(self, ecmp_model):
        dist = output_distribution(ecmp_model)
        assert float(dist.total_mass()) == pytest.approx(1.0)

    def test_field_distribution(self, ecmp_model):
        dist = field_distribution(output_distribution(ecmp_model), "sw")
        assert float(dist(1)) == pytest.approx(1.0)

    def test_expected_value_conditioning(self):
        dist = Interpreter().run(
            s.choice((s.assign("hops", 2), 0.5), (s.drop(), 0.5)), Packet({"hops": 0})
        )
        assert expected_value(dist, lambda p: p["hops"]) == pytest.approx(2.0)

    def test_expected_value_without_mass_raises(self):
        dist = Interpreter().run(s.drop(), Packet({}))
        with pytest.raises(ZeroDivisionError):
            expected_value(dist, lambda p: 1)


class TestLatency:
    def test_hop_counter_required(self, abft):
        model = build_model(abft, ecmp_policy(abft, 1), dest=1)
        with pytest.raises(ValueError):
            hop_count_cdf(model)

    def test_failure_free_cdf_saturates_at_one(self, ecmp_model):
        cdf = hop_count_cdf(ecmp_model)
        assert cdf[max(cdf)] == pytest.approx(1.0)
        assert cdf[4] == pytest.approx(1.0)  # all shortest paths are <= 4 hops

    def test_cdf_is_monotone(self, ecmp_model):
        cdf = hop_count_cdf(ecmp_model)
        values = [cdf[h] for h in sorted(cdf)]
        assert values == sorted(values)

    def test_expected_hop_count_between_two_and_four(self, ecmp_model):
        expected = expected_hop_count(ecmp_model)
        assert 2.0 <= expected <= 4.0

    def test_hop_count_distribution_marks_drops_as_none(self, abft):
        model = f10_model(abft, 1, scheme="f10_0", failure_probability=0.5, count_hops=True)
        dist = hop_count_distribution(model)
        assert None in dist.support()

    def test_hop_count_series_labels(self, ecmp_model):
        series = hop_count_series({"ecmp": ecmp_model}, max_hops=6)
        assert set(series) == {"ecmp"}


class TestResilienceTables:
    def factory(self, abft):
        def build(scheme: str, k: int | None):
            return f10_model(abft, 1, scheme=scheme, failure_probability=0.25, max_failures=k)

        return build

    def test_resilience_table_matches_figure_11b(self, abft):
        table = resilience_table(self.factory(abft), ["f10_0", "f10_3"], [0, 1])
        assert table["f10_0"] == {0: True, 1: False}
        assert table["f10_3"] == {0: True, 1: True}

    def test_format_resilience_table(self, abft):
        table = resilience_table(self.factory(abft), ["f10_0"], [0, 1])
        text = format_resilience_table(table)
        assert "✓" in text and "✗" in text

    def test_refinement_table_and_formatting(self, abft):
        table = refinement_table(self.factory(abft), [("f10_0", "f10_3")], [0, 1])
        assert table[("f10_0", "f10_3")][0] == "≡"
        assert table[("f10_0", "f10_3")][1] == "<"
        assert "f10_0 vs f10_3" in format_refinement_table(table)

    def test_compare_schemes_pairwise(self, abft):
        factory = self.factory(abft)
        models = {"f10_0": factory("f10_0", 1), "f10_3": factory("f10_3", 1)}
        results = compare_schemes(models)
        assert results[("f10_0", "f10_3")] == "<"


class TestExactInferenceBaseline:
    def test_simple_choice(self):
        baseline = ExactInferenceBaseline()
        policy = s.choice((s.assign("f", 1), Fraction(1, 4)), (s.assign("f", 2), Fraction(3, 4)))
        dist = baseline.output_distribution(policy, Packet({"f": 0}))
        assert float(dist(Packet({"f": 1}))) == pytest.approx(0.25)

    def test_loop_unrolling_converges(self):
        baseline = ExactInferenceBaseline()
        loop = s.while_do(s.test("f", 0), s.choice((s.assign("f", 1), 0.5), (s.skip(), 0.5)))
        dist = baseline.output_distribution(loop, Packet({"f": 0}))
        assert float(dist(Packet({"f": 1}))) == pytest.approx(1.0, abs=1e-9)

    def test_unroll_limit_enforced(self):
        baseline = ExactInferenceBaseline(unroll_limit=3)
        loop = s.while_do(s.test("f", 0), s.choice((s.assign("f", 1), 0.01), (s.skip(), 0.99)))
        with pytest.raises(UnrollLimitExceeded):
            baseline.output_distribution(loop, Packet({"f": 0}))

    def test_state_space_limit_enforced(self):
        baseline = ExactInferenceBaseline(max_states=10)
        policy = s.seq(*[s.assign(f"x{i}", 3) for i in range(6)])
        with pytest.raises(MemoryError):
            baseline.output_distribution(policy, Packet({}))

    def test_agrees_with_interpreter_on_chain(self):
        chain = chain_model(1, Fraction(1, 10))
        baseline_prob = ExactInferenceBaseline().delivery_probability(
            chain.policy, chain.ingress, chain.delivered
        )
        native = Interpreter(exact=True).run_packet(chain.policy, chain.ingress)
        native_prob = float(
            native.prob_of(lambda o: o is not DROP and o.get("sw") == 4)
        )
        assert baseline_prob == pytest.approx(native_prob, abs=1e-9)

    def test_guarded_fragment_only(self):
        baseline = ExactInferenceBaseline()
        with pytest.raises(Exception):
            baseline.output_distribution(s.star(s.assign("f", 1)), Packet({"f": 0}))
