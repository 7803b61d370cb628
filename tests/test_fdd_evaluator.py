"""Tests for the compiled-body fast path (:mod:`repro.core.fdd.evaluator`).

The central claim: for every eligible body and every concrete packet,
``CompiledBody.run_packet`` computes exactly the distribution the AST
interpreter computes (and, transitively via the existing compiler tests,
the reference denotational semantics).  Property tests generate random
guarded programs to check this; unit tests cover lazy per-branch
compilation, spine specialization, and the deep-body no-recursion
guarantee.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import syntax as s
from repro.core.compiler import Compiler
from repro.core.distributions import Dist
from repro.core.fdd.evaluator import CompiledBody, _dispatch_table, dispatch_spine
from repro.core.fdd.node import FddManager
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP, Packet, PacketUniverse
from repro.core.semantics.denotational import eval_policy

from test_properties import examples

FIELDS = ["f", "g"]
VALUES = [0, 1, 2]
UNIVERSE = PacketUniverse({"f": VALUES, "g": VALUES})

tests = st.builds(s.test, st.sampled_from(FIELDS), st.sampled_from(VALUES))
assigns = st.builds(s.assign, st.sampled_from(FIELDS), st.sampled_from(VALUES))


def predicates(depth: int = 2):
    base = st.one_of(tests, st.just(s.skip()), st.just(s.drop()))
    if depth == 0:
        return base
    sub = predicates(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda a, b: s.conj(a, b), sub, sub),
        st.builds(lambda a, b: s.disj(a, b), sub, sub),
        st.builds(s.neg, sub),
    )


def bodies(depth: int = 2):
    """Random loop-free guarded programs (all eligible for compilation)."""
    base = st.one_of(assigns, predicates(1))
    if depth == 0:
        return base
    sub = bodies(depth - 1)
    probability = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    return st.one_of(
        base,
        st.builds(lambda a, b: s.seq(a, b), sub, sub),
        st.builds(
            lambda a, b, r: s.choice((a, r), (b, 1 - r)), sub, sub, probability
        ),
        st.builds(s.ite, predicates(1), sub, sub),
        st.builds(
            lambda g1, b1, b2: s.case([(g1, b1)], b2),
            tests, sub, sub,
        ),
    )


def compile_body(body: s.Policy, exact: bool) -> CompiledBody:
    compiled = CompiledBody.try_compile(
        body, Compiler(manager=FddManager()), exact=exact
    )
    assert compiled is not None, f"loop-free guarded body must be eligible: {body!r}"
    return compiled


def reference_output(policy: s.Policy, packet: Packet):
    dist = eval_policy(policy, frozenset([packet]), max_star_iterations=400, tolerance=1e-13)
    return dist.map(lambda outputs: next(iter(outputs)) if outputs else DROP)


class TestAgreementProperties:
    @settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(body=bodies(2), packet=st.sampled_from(list(UNIVERSE.packets)))
    def test_compiled_matches_interpreter_and_reference_exact(self, body, packet):
        compiled = compile_body(body, exact=True)
        via_compiled = compiled.run_packet(packet)
        via_interp = Interpreter(exact=True, compile_bodies=False).run_packet(body, packet)
        assert via_compiled == via_interp
        assert via_compiled.total_mass() == 1
        assert via_compiled.close_to(reference_output(body, packet), tolerance=1e-9)

    @settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(body=bodies(2), packet=st.sampled_from(list(UNIVERSE.packets)))
    def test_compiled_float_path_matches_interpreter(self, body, packet):
        compiled = compile_body(body, exact=False)
        via_compiled = compiled.run_packet(packet)
        via_interp = Interpreter(exact=True, compile_bodies=False).run_packet(body, packet)
        assert via_compiled.close_to(via_interp, tolerance=1e-9)
        assert float(via_compiled.total_mass()) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=examples(40), deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(body=bodies(2), packet=st.sampled_from(list(UNIVERSE.packets)))
    def test_guarded_loop_agrees_through_interpreter(self, body, packet):
        """Full-loop check: compiled-body exploration vs pure AST interpretation."""
        flip = s.choice((s.assign("f", 2), Fraction(1, 2)), (s.skip(), Fraction(1, 2)))
        loop = s.while_do(s.neg(s.test("f", 2)), s.seq(body, flip))
        fast = Interpreter(exact=True).run_packet(loop, packet)
        slow = Interpreter(exact=True, compile_bodies=False).run_packet(loop, packet)
        assert fast == slow


class TestEligibility:
    def test_nested_loop_is_ineligible(self):
        body = s.seq(s.assign("f", 1), s.while_do(s.test("g", 0), s.assign("g", 1)))
        assert CompiledBody.try_compile(body, Compiler()) is None

    def test_star_is_ineligible(self):
        assert CompiledBody.try_compile(s.star(s.assign("f", 1)), Compiler()) is None

    def test_union_is_ineligible_even_over_predicates(self):
        body = s.Union((s.test("f", 1), s.test("f", 2)))
        assert CompiledBody.try_compile(body, Compiler()) is None

    def test_interpreter_falls_back_on_nested_loops(self):
        inner = s.while_do(s.test("g", 0), s.choice(
            (s.assign("g", 1), Fraction(1, 2)), (s.skip(), Fraction(1, 2))
        ))
        outer = s.while_do(s.neg(s.test("f", 1)), s.seq(inner, s.assign("f", 1)))
        interp = Interpreter(exact=True)
        out = interp.run_packet(outer, Packet({"f": 0, "g": 0}))
        assert out == Dist.point(Packet({"f": 1, "g": 1}))
        stats = interp.loop_stats()
        # The outer body contains a loop and falls back to interpretation;
        # the inner body is loop-free and still takes the fast path.
        assert stats["loops"] == 2
        assert stats["compiled_loops"] == 1


class TestLazyPerBranchCompilation:
    def make_case_body(self, n: int = 50) -> s.Policy:
        return s.case(
            [(s.test("sw", i), s.assign("sw", i + 1)) for i in range(n)], s.drop()
        )

    def test_only_visited_branches_compile(self):
        compiled = CompiledBody.try_compile(self.make_case_body(), Compiler())
        assert compiled is not None
        assert compiled.stats()["compiled_branches"] == 0
        compiled.run_packet(Packet({"sw": 3}))
        assert compiled.stats()["compiled_branches"] == 1
        compiled.run_packet(Packet({"sw": 3}))
        assert compiled.stats()["compiled_branches"] == 1
        compiled.run_packet(Packet({"sw": 7}))
        assert compiled.stats()["compiled_branches"] == 2

    def test_unmatched_value_uses_default(self):
        compiled = CompiledBody.try_compile(self.make_case_body(), Compiler())
        assert compiled.run_packet(Packet({"sw": 999})) == Dist.point(DROP)
        assert compiled.run_packet(Packet({"pt": 1})) == Dist.point(DROP)

    def test_duplicate_guards_keep_first_branch(self):
        policy = s.case(
            [(s.test("sw", 1), s.assign("pt", 10)), (s.test("sw", 1), s.assign("pt", 99))],
            s.drop(),
        )
        compiled = CompiledBody.try_compile(policy, Compiler())
        out = compiled.run_packet(Packet({"sw": 1}))
        assert out == Dist.point(Packet({"sw": 1, "pt": 10}))


class TestSpineSpecialization:
    def network_like_body(self) -> s.Policy:
        """failure-case ; routing-case ; topology-case ; flag reset."""
        pr = Fraction(1, 100)
        failure = s.case(
            [
                (s.test("sw", i), s.choice((s.assign("up1", 0), pr), (s.assign("up1", 1), 1 - pr)))
                for i in (1, 2)
            ],
            s.skip(),
        )
        routing = s.case(
            [(s.test("sw", i), s.assign("pt", i)) for i in (1, 2)], s.drop()
        )
        topo = s.case(
            [
                (s.test("sw", 1), s.ite(s.test("up1", 1), s.assign("sw", 2), s.drop())),
                (s.test("sw", 2), s.ite(s.test("up1", 1), s.assign("sw", 3), s.drop())),
            ],
            s.drop(),
        )
        return s.seq(failure, routing, topo, s.assign("up1", 1))

    def test_spine_detected(self):
        body = self.network_like_body()
        spine = dispatch_spine(body.parts)
        assert spine is not None
        field, values, at, default = Compiler().runs_per_value(body.parts, spine)
        assert field == "sw"
        assert values == [1, 2]
        assert at(1) is not at(2) and default.is_leaf()

    def test_spine_rows_match_interpreter(self):
        body = self.network_like_body()
        compiled = CompiledBody.try_compile(body, Compiler(), exact=True)
        assert compiled is not None
        assert compiled.stats()["case_segments"] == 1
        interp = Interpreter(exact=True, compile_bodies=False)
        for pk in [Packet({"sw": 1, "pt": 0, "up1": 1}), Packet({"sw": 2, "pt": 0, "up1": 1}),
                   Packet({"sw": 3, "pt": 0, "up1": 1})]:
            assert compiled.run_packet(pk) == interp.run_packet(body, pk)

    def test_assignment_blocks_later_specialization(self):
        # The first case assigns sw, so the second must not specialize on
        # the *input* switch value.
        move = s.case([(s.test("sw", 1), s.assign("sw", 2))], s.skip())
        mark = s.case([(s.test("sw", 2), s.assign("seen", 1))], s.assign("seen", 0))
        body = s.seq(move, mark)
        compiled = CompiledBody.try_compile(body, Compiler(), exact=True)
        assert compiled is not None
        out = compiled.run_packet(Packet({"sw": 1, "seen": 0}))
        assert out == Dist.point(Packet({"sw": 2, "seen": 1}))
        out = Interpreter(exact=True).run_packet(body, Packet({"sw": 1, "seen": 0}))
        assert out == Dist.point(Packet({"sw": 2, "seen": 1}))


class TestDeepBodies:
    def test_wide_case_body_needs_no_recursion(self):
        branches = [(s.test("sw", i), s.assign("sw", i + 1)) for i in range(600)]
        body = s.seq(s.case(branches, s.drop()), s.case(branches, s.drop()))
        compiled = CompiledBody.try_compile(body, Compiler())
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            out = compiled.run_packet(Packet({"sw": 5}))
        finally:
            sys.setrecursionlimit(limit)
        assert out == Dist.point(Packet({"sw": 7}))


class TestDispatchTable:
    def test_mixed_fields_not_dispatchable(self):
        policy = s.case(
            [(s.test("sw", 1), s.skip()), (s.test("pt", 1), s.skip())], s.drop()
        )
        assert _dispatch_table(policy) is None

    def test_compound_guard_not_dispatchable(self):
        policy = s.case(
            [(s.conj(s.test("sw", 1), s.test("pt", 1)), s.skip())], s.drop()
        )
        assert _dispatch_table(policy) is None
