"""Tests for symbolic packet classes and FDD <-> sparse matrix conversion."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import syntax as s
from repro.core.compiler import compile_policy
from repro.core.distributions import Dist
from repro.core.fdd import ops
from repro.core.fdd.actions import Action
from repro.core.fdd.flat import ClassRow, FlatDiagram
from repro.core.fdd.matrix import (
    DomainTooLargeError,
    SymbolicPacket,
    class_row,
    class_transition,
    classify,
    domain_size,
    enumerate_classes,
    evaluate_class,
    fdd_to_matrix,
    fresh_values,
    matrix_domains,
    matrix_to_fdd,
)
from repro.core.fdd.node import FddManager, output_distribution
from repro.core.packet import DROP, Packet

from oracles import fdd_to_matrix_reference, matrices_identical
from test_properties import examples


class TestSymbolicPacket:
    def test_wildcard_never_satisfies_tests(self):
        cls = SymbolicPacket({"pt": None})
        assert not cls.satisfies_test("pt", 1)

    def test_concrete_value_satisfies_matching_test(self):
        cls = SymbolicPacket({"pt": 2})
        assert cls.satisfies_test("pt", 2)
        assert not cls.satisfies_test("pt", 3)

    def test_apply_action(self):
        cls = SymbolicPacket({"pt": 1, "sw": None})
        updated = cls.apply_action(Action({"pt": 9}))
        assert updated.value("pt") == 9
        assert updated.value("sw") is None

    def test_apply_drop(self):
        assert SymbolicPacket({"pt": 1}).apply_action(DROP) is DROP or SymbolicPacket(
            {"pt": 1}
        ).apply_action(DROP) == DROP

    def test_representative_uses_fresh_values_for_wildcards(self):
        cls = SymbolicPacket({"pt": None, "sw": 3})
        packet = cls.representative({"pt": 99, "sw": 0})
        assert packet["pt"] == 99 and packet["sw"] == 3

    def test_classify(self):
        domains = {"pt": [1, 2]}
        assert classify(Packet({"pt": 2}), domains).value("pt") == 2
        assert classify(Packet({"pt": 7}), domains).value("pt") is None

    def test_cached_hash_agrees_across_every_constructor(self):
        built = SymbolicPacket({"sw": None, "pt": 9})
        derived = SymbolicPacket({"pt": 1, "sw": None}).apply_action(Action({"pt": 9}))
        widened = SymbolicPacket({"pt": 9}).apply_action(Action({"sw": 4}))
        assert built == derived and hash(built) == hash(derived) == hash(built.values)
        assert widened == SymbolicPacket({"pt": 9, "sw": 4})
        assert hash(widened) == hash(widened.values)
        assert built != widened and built != built.values
        with pytest.raises(AttributeError):
            built.values = ()

    def test_pickle_never_ships_the_process_local_hash(self):
        import pickle

        cls = SymbolicPacket({"pt": 2, "sw": None})
        wire = pickle.dumps(cls)
        assert b"_hash" not in wire  # str hashes differ per interpreter
        assert pickle.loads(wire) == cls and hash(pickle.loads(wire)) == hash(cls)


class TestDomains:
    def test_enumerate_classes_includes_wildcards(self):
        classes = enumerate_classes({"pt": [1, 2]})
        assert len(classes) == 3

    def test_domain_size(self):
        assert domain_size({"a": [1, 2], "b": [1]}) == 6

    def test_limit_enforced(self):
        with pytest.raises(DomainTooLargeError):
            enumerate_classes({"a": range(100), "b": range(100)}, limit=100)

    def test_fresh_values_avoid_mentioned(self):
        fresh = fresh_values({"pt": [0, 1, 2]})
        assert fresh["pt"] not in {0, 1, 2}


class TestConversion:
    def make_example_fdd(self, manager: FddManager):
        """The FDD of Figure 5: pt=1 ? (pt<-2 ⊕ pt<-3) : pt=2 ? pt<-1 : pt=3 ? pt<-1 : drop."""
        split = ops.convex(
            manager,
            [(manager.from_assign("pt", 2), Fraction(1, 2)), (manager.from_assign("pt", 3), Fraction(1, 2))],
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

    def test_figure5_matrix(self):
        manager = FddManager()
        fdd = self.make_example_fdd(manager)
        matrix = fdd_to_matrix(fdd)
        # Symbolic packets pt=1, pt=2, pt=3, pt=* plus the drop column.
        assert len(matrix.classes) == 4
        assert matrix.matrix.shape == (5, 5)
        assert matrix.is_stochastic()
        row = matrix.row(SymbolicPacket({"pt": 1}))
        assert float(row(SymbolicPacket({"pt": 2}))) == pytest.approx(0.5)
        assert float(row(SymbolicPacket({"pt": 3}))) == pytest.approx(0.5)
        wildcard_row = matrix.row(SymbolicPacket({"pt": None}))
        assert float(wildcard_row(DROP)) == pytest.approx(1.0)

    def test_evaluate_class_matches_concrete_evaluation(self):
        manager = FddManager()
        fdd = self.make_example_fdd(manager)
        for value, cls in [(1, SymbolicPacket({"pt": 1})), (2, SymbolicPacket({"pt": 2}))]:
            symbolic = evaluate_class(fdd, cls)
            concrete = output_distribution(fdd, Packet({"pt": value}))
            assert symbolic.map(lambda a: a if a is DROP else tuple(a.mods)) is not None
            assert float(symbolic.total_mass()) == pytest.approx(float(concrete.total_mass()))

    def test_class_transition(self):
        manager = FddManager()
        fdd = ops.sequence(manager.from_test("pt", 1), manager.from_assign("pt", 2))
        dist = class_transition(fdd, SymbolicPacket({"pt": 1}))
        assert dist(SymbolicPacket({"pt": 2})) == 1

    def test_extra_values_extend_the_domain(self):
        manager = FddManager()
        fdd = manager.from_test("pt", 1)
        matrix = fdd_to_matrix(fdd, extra_values={"pt": [5]})
        assert len(matrix.classes) == 3  # pt=1, pt=5, pt=*

    def test_matrix_to_fdd_roundtrip(self):
        manager = FddManager()
        fdd = self.make_example_fdd(manager)
        matrix = fdd_to_matrix(fdd)
        rows = {cls: matrix.row(cls) for cls in matrix.classes}
        rebuilt = matrix_to_fdd(manager, matrix.domains, rows)
        for value in (1, 2, 3, 7):
            packet = Packet({"pt": value})
            original = output_distribution(fdd, packet)
            recovered = output_distribution(rebuilt, packet)
            assert original.close_to(recovered)

    def test_matrix_to_fdd_default_leaf(self):
        manager = FddManager()
        rebuilt = matrix_to_fdd(
            manager,
            {"pt": (1,)},
            {SymbolicPacket({"pt": 1}): Dist.point(SymbolicPacket({"pt": 1}))},
        )
        assert output_distribution(rebuilt, Packet({"pt": 9})) == Dist.point(DROP)


class TestClassRow:
    def test_class_row_matches_class_transition(self):
        manager = FddManager()
        fdd = TestConversion().make_example_fdd(manager)
        for cls in enumerate_classes({"pt": [1, 2, 3]}):
            row = class_row(fdd, cls)
            dist = class_transition(fdd, cls)
            assert dict(row.items()) == pytest.approx(
                {outcome: float(prob) for outcome, prob in dist.items()}
            )

    def test_duplicate_outcomes_merge_at_construction(self):
        # A class whose two distinct actions collapse to the same outcome
        # class: both halves must merge into one entry so dict(row.items())
        # is lossless.
        manager = FddManager()
        split = ops.convex(
            manager,
            [
                (manager.from_assign("pt", 2), Fraction(1, 2)),
                (manager.from_assign("pt", 2), Fraction(1, 4)),
                (manager.false_leaf, Fraction(1, 4)),
            ],
        )
        row = class_row(split, SymbolicPacket({"pt": 2}))
        weights = dict(row.items())
        assert len(weights) == len(row.outcomes)
        assert weights[SymbolicPacket({"pt": 2})] == pytest.approx(0.75)
        assert weights[DROP] == pytest.approx(0.25)
        assert dict(row.to_dist().items()) == pytest.approx(weights)

    def test_from_items_merges(self):
        cls = SymbolicPacket({"pt": 1})
        row = ClassRow.from_items([(cls, 0.25), (cls, 0.25), (DROP, 0.5)])
        assert dict(row.items()) == {cls: 0.5, DROP: 0.5}
        assert row.support() == (cls, DROP)


class TestSinglePassAssembly:
    """The seeded rewrite evaluates every class exactly once (the old
    two-pass path computed each row twice when no row_cache was given)."""

    def test_each_class_evaluated_exactly_once_without_row_cache(self, monkeypatch):
        manager = FddManager()
        fdd = TestConversion().make_example_fdd(manager)
        calls: dict[tuple, int] = {}
        steps = []
        real = FlatDiagram.step

        def counting(flat, codes):
            steps.append(len(codes))
            for row in map(tuple, codes.tolist()):
                calls[row] = calls.get(row, 0) + 1
            return real(flat, codes)

        monkeypatch.setattr(FlatDiagram, "step", counting)
        matrix = fdd_to_matrix(fdd, seeds=[SymbolicPacket({"pt": 1})])
        assert matrix.assembled_rows == len(matrix.classes) == len(calls) > 0
        assert all(count == 1 for count in calls.values()), calls
        # pt=1 reaches pt=2 and pt=3 in one step, which reach pt=1: two frontiers.
        assert steps == [1, 2]


_FIELDS = ["f", "g"]
_VALUES = [0, 1, 2]
_tests_st = st.builds(s.test, st.sampled_from(_FIELDS), st.sampled_from(_VALUES))
_assigns_st = st.builds(s.assign, st.sampled_from(_FIELDS), st.sampled_from(_VALUES))


def _programs(depth: int = 2):
    base = st.one_of(_assigns_st, _tests_st, st.just(s.skip()), st.just(s.drop()))
    if depth == 0:
        return base
    sub = _programs(depth - 1)
    predicates = st.one_of(_tests_st, st.just(s.skip()), st.just(s.drop()))
    probability = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    return st.one_of(
        base,
        st.builds(lambda a, b: s.seq(a, b), sub, sub),
        st.builds(lambda a, b, r: s.choice((a, r), (b, 1 - r)), sub, sub, probability),
        st.builds(s.ite, predicates, sub, sub),
    )


class TestVectorizedAssemblyEquivalence:
    """Vectorized single-pass assembly ≡ the old per-row reference path."""

    @settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(policy=_programs(2))
    def test_full_domain_assembly_identical(self, policy):
        fdd = compile_policy(policy, exact=True)
        matrices_identical(fdd_to_matrix(fdd), fdd_to_matrix_reference(fdd))

    @settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(policy=_programs(2), data=st.data())
    def test_seeded_assembly_identical(self, policy, data):
        fdd = compile_policy(policy, exact=True)
        domains = matrix_domains(fdd)
        classes = enumerate_classes(domains)
        seeds = data.draw(
            st.lists(st.sampled_from(classes), min_size=1, max_size=4, unique=True)
        )
        absorb_value = data.draw(st.sampled_from([None, 0, 1, 2]))

        def absorbing(cls):
            return cls.value("f") == absorb_value

        predicate = None if absorb_value is None else absorbing
        matrices_identical(
            fdd_to_matrix(fdd, seeds=seeds, absorbing_when=predicate),
            fdd_to_matrix_reference(fdd, seeds=seeds, absorbing_when=predicate),
        )
