"""Tests for the forward interpreter and its possibility analysis."""

from fractions import Fraction

import pytest

from repro.core import syntax as s
from repro.core.compiler import GuardedFragmentError
from repro.core.distributions import Dist
from repro.core.interpreter import Interpreter, eval_predicate, output_distribution
from repro.core.packet import DROP, Packet


@pytest.fixture
def interp():
    return Interpreter(exact=True)


class TestPredicateEvaluation:
    def test_primitives(self):
        pk = Packet({"sw": 1})
        assert eval_predicate(s.skip(), pk)
        assert not eval_predicate(s.drop(), pk)
        assert eval_predicate(s.test("sw", 1), pk)
        assert not eval_predicate(s.test("sw", 2), pk)

    def test_connectives(self):
        pk = Packet({"sw": 1, "pt": 2})
        assert eval_predicate(s.conj(s.test("sw", 1), s.test("pt", 2)), pk)
        assert eval_predicate(s.disj(s.test("sw", 9), s.test("pt", 2)), pk)
        assert eval_predicate(s.neg(s.test("sw", 9)), pk)

    def test_non_predicate_rejected(self):
        with pytest.raises(TypeError):
            eval_predicate(s.assign("sw", 1), Packet({}))


class TestBasicPrograms:
    def test_assign_and_test(self, interp):
        assert interp.run_packet(s.assign("f", 1), Packet({"f": 0})) == Dist.point(Packet({"f": 1}))
        assert interp.run_packet(s.test("f", 1), Packet({"f": 0})) == Dist.point(DROP)

    def test_sequence_threads_drop(self, interp):
        policy = s.Seq((s.test("f", 1), s.assign("g", 2)))
        assert interp.run_packet(policy, Packet({"f": 0})) == Dist.point(DROP)

    def test_choice(self, interp):
        policy = s.choice((s.assign("f", 1), Fraction(1, 4)), (s.assign("f", 2), Fraction(3, 4)))
        dist = interp.run_packet(policy, Packet({"f": 0}))
        assert dist(Packet({"f": 1})) == Fraction(1, 4)

    def test_conditional(self, interp):
        policy = s.ite(s.test("f", 0), s.assign("g", 1), s.assign("g", 2))
        assert interp.run_packet(policy, Packet({"f": 0}))(Packet({"f": 0, "g": 1})) == 1

    def test_case_dispatch_on_common_field(self, interp):
        policy = s.case([(s.test("sw", i), s.assign("pt", i * 10)) for i in range(1, 4)], s.drop())
        assert interp.run_packet(policy, Packet({"sw": 2}))(Packet({"sw": 2, "pt": 20})) == 1
        assert interp.run_packet(policy, Packet({"sw": 9})) == Dist.point(DROP)

    def test_case_with_compound_guards_falls_back_to_scan(self, interp):
        policy = s.case(
            [(s.conj(s.test("sw", 1), s.test("pt", 1)), s.assign("ok", 1))], s.assign("ok", 0)
        )
        assert interp.run_packet(policy, Packet({"sw": 1, "pt": 1}))(
            Packet({"sw": 1, "pt": 1, "ok": 1})
        ) == 1

    def test_union_and_star_rejected(self, interp):
        with pytest.raises(GuardedFragmentError):
            interp.run_packet(s.Union((s.assign("f", 1), s.assign("f", 2))), Packet({}))
        with pytest.raises(GuardedFragmentError):
            interp.run_packet(s.star(s.assign("f", 1)), Packet({}))

    def test_run_on_distribution(self, interp):
        inputs = Dist({Packet({"f": 0}): Fraction(1, 2), DROP: Fraction(1, 2)})
        dist = interp.run(s.assign("f", 1), inputs)
        assert dist(Packet({"f": 1})) == Fraction(1, 2)
        assert dist(DROP) == Fraction(1, 2)

    def test_output_distribution_helper_uniform_ingress(self):
        dist = output_distribution(s.assign("f", 1), [Packet({"f": 0}), Packet({"f": 2})])
        assert dist(Packet({"f": 1})) == 1


class TestLoops:
    def test_deterministic_loop(self, interp):
        loop = s.while_do(s.test("f", 0), s.assign("f", 1))
        assert interp.run_packet(loop, Packet({"f": 0})) == Dist.point(Packet({"f": 1}))

    def test_loop_not_entered_when_guard_false(self, interp):
        loop = s.while_do(s.test("f", 0), s.assign("f", 1))
        assert interp.run_packet(loop, Packet({"f": 3})) == Dist.point(Packet({"f": 3}))

    def test_geometric_loop_probability_one(self, interp):
        loop = s.while_do(s.test("f", 0), s.choice((s.assign("f", 1), 0.5), (s.skip(), 0.5)))
        assert interp.run_packet(loop, Packet({"f": 0}))(Packet({"f": 1})) == 1

    def test_divergent_loop_maps_to_drop(self):
        interp = Interpreter(exact=False)
        loop = s.while_do(s.test("f", 0), s.skip())
        dist = interp.run_packet(loop, Packet({"f": 0}))
        assert float(dist(DROP)) == pytest.approx(1.0)

    def test_random_walk_loop(self, interp):
        # Random walk on {0,1,2,3} absorbing at 3 (up w.p. 2/3, down w.p. 1/3).
        body = s.case(
            [
                (s.test("n", i), s.choice((s.assign("n", i + 1), Fraction(2, 3)),
                                          (s.assign("n", max(i - 1, 0)), Fraction(1, 3))))
                for i in (0, 1, 2)
            ],
            s.drop(),
        )
        loop = s.while_do(s.neg(s.test("n", 3)), body)
        dist = interp.run_packet(loop, Packet({"n": 0}))
        assert dist(Packet({"n": 3})) == 1

    def test_loop_solutions_are_cached_across_queries(self, interp):
        loop = s.while_do(s.test("f", 0), s.choice((s.assign("f", 1), 0.5), (s.skip(), 0.5)))
        interp.run_packet(loop, Packet({"f": 0}))
        rows_before = dict(interp._loop_rows[id(loop)])
        interp.run_packet(loop, Packet({"f": 0}))
        assert interp._loop_rows[id(loop)] == rows_before

    def test_state_explosion_guard(self):
        interp = Interpreter(max_loop_states=3)
        body = s.case(
            [(s.test("n", i), s.assign("n", i + 1)) for i in range(10)], s.drop()
        )
        loop = s.while_do(s.neg(s.test("n", 10)), body)
        with pytest.raises(RuntimeError):
            interp.run_packet(loop, Packet({"n": 0}))

    def test_agrees_with_compiler(self):
        from repro.core.compiler import compile_policy
        from repro.core.fdd.node import output_distribution as fdd_out

        loop = s.while_do(
            s.neg(s.test("n", 0)),
            s.case([(s.test("n", i), s.choice((s.assign("n", i - 1), 0.5), (s.skip(), 0.5)))
                    for i in (1, 2)], s.drop()),
        )
        packet = Packet({"n": 2})
        via_interp = Interpreter(exact=True).run_packet(loop, packet)
        via_fdd = fdd_out(compile_policy(loop, exact=True), packet)
        assert via_interp.close_to(via_fdd, tolerance=1e-9)


class TestCertainOutcomes:
    def test_deterministic_program(self, interp):
        outcomes, diverge = interp.certain_outcomes(s.assign("f", 1), Packet({"f": 0}))
        assert outcomes == frozenset({Packet({"f": 1})})
        assert not diverge

    def test_choice_collects_all_branches(self, interp):
        policy = s.choice((s.assign("f", 1), 0.5), (s.drop(), 0.5))
        outcomes, diverge = interp.certain_outcomes(policy, Packet({"f": 0}))
        assert DROP in outcomes and Packet({"f": 1}) in outcomes
        assert not diverge

    def test_terminating_loop_not_divergent(self, interp):
        loop = s.while_do(s.test("f", 0), s.choice((s.assign("f", 1), 0.5), (s.skip(), 0.5)))
        outcomes, diverge = interp.certain_outcomes(loop, Packet({"f": 0}))
        assert outcomes == frozenset({Packet({"f": 1})})
        assert not diverge

    def test_trapped_loop_detected_as_divergent(self, interp):
        loop = s.while_do(s.test("f", 0), s.skip())
        outcomes, diverge = interp.certain_outcomes(loop, Packet({"f": 0}))
        assert diverge
        assert outcomes == frozenset()

    def test_sequence_after_drop_stays_dropped(self, interp):
        policy = s.Seq((s.drop(), s.assign("f", 1)))
        outcomes, _ = interp.certain_outcomes(policy, Packet({}))
        assert outcomes == frozenset({DROP})


def count_body_evaluations(interp: Interpreter, body: s.Policy) -> list[Packet]:
    """Stub ``certain_outcomes`` to record every state ``body`` is analysed on."""
    states: list[Packet] = []
    inner = interp.certain_outcomes

    def counting(policy, packet):
        if policy is body:
            states.append(packet)
        return inner(policy, packet)

    interp.certain_outcomes = counting
    return states


class TestPossibilityMemo:
    """The possibility analysis visits a loop-head state once per interpreter."""

    @pytest.fixture(scope="class")
    def model(self, ab_fattree_4):
        from repro.routing import f10_model

        return f10_model(
            ab_fattree_4, 1, scheme="f10_3",
            failure_probability=Fraction(1, 4), max_failures=2,
        )

    def test_one_body_evaluation_per_loop_head_state(self, model):
        interp = Interpreter()
        states = count_body_evaluations(interp, model.body)
        assert model.certainly_delivers(interp)
        assert len(states) > len(model.ingress_packets)
        assert len(states) == len(set(states))

    def test_more_ingresses_cost_no_more_body_evaluations(self, model):
        once, twice = Interpreter(), Interpreter()
        states_once = count_body_evaluations(once, model.body)
        states_twice = count_body_evaluations(twice, model.body)
        verdicts = [once.certain_outcomes(model.policy, pk) for pk in model.ingress_packets]
        doubled = [
            twice.certain_outcomes(model.policy, pk) for pk in model.ingress_packets * 2
        ]
        assert doubled == verdicts * 2
        assert sorted(states_twice, key=repr) == sorted(states_once, key=repr)

    def test_memo_agrees_with_a_fresh_interpreter_per_ingress(self, model):
        shared = Interpreter()
        for packet in model.ingress_packets:
            assert shared.certain_outcomes(model.policy, packet) == (
                Interpreter().certain_outcomes(model.policy, packet)
            )

    def test_memo_is_not_served_to_a_different_loop(self, interp):
        """Two loops, one interpreter: each gets its own body verdicts.

        The second loop is also made to land on the first one's ``id`` —
        the situation the ``_loop_nodes`` identity guard exists for.
        """
        packet = Packet({"f": 0})
        exits = s.while_do(s.test("f", 0), s.assign("f", 1))
        trapped = s.while_do(s.test("f", 0), s.skip())
        assert interp.certain_outcomes(exits, packet) == (frozenset({Packet({"f": 1})}), False)
        assert interp.certain_outcomes(trapped, packet) == (frozenset(), True)
        # A stale entry under trapped's id, as if `exits` had lived there before.
        interp._loop_nodes[id(trapped)] = exits
        interp._loop_possible[id(trapped)] = dict(interp._loop_possible[id(exits)])
        assert interp.certain_outcomes(trapped, packet) == (frozenset(), True)

    def test_nested_loops(self, interp):
        inner = s.while_do(s.test("g", 0), s.choice((s.assign("g", 1), 0.5), (s.skip(), 0.5)))
        outer = s.while_do(s.test("f", 0), s.seq(s.assign("g", 0), inner, s.assign("f", 1)))
        for _ in range(2):
            outcomes, diverge = interp.certain_outcomes(outer, Packet({"f": 0, "g": 0}))
            assert outcomes == frozenset({Packet({"f": 1, "g": 1})})
            assert not diverge


class TestIncrementalAbsorption:
    """The per-loop solver re-factorizes only when the chain grows."""

    def walk_loop(self, n: int = 6) -> s.Policy:
        body = s.case(
            [
                (s.test("n", i), s.choice((s.assign("n", i + 1), Fraction(1, 2)),
                                          (s.assign("n", i), Fraction(1, 2))))
                for i in range(n)
            ],
            s.drop(),
        )
        return s.while_do(s.neg(s.test("n", 6)), body)

    def factorizations(self, interp: Interpreter) -> int:
        return interp.loop_stats()["factorizations"]

    def test_repeated_seed_reuses_solve(self):
        interp = Interpreter()
        loop = self.walk_loop()
        interp.run_packet(loop, Packet({"n": 0}))
        count = self.factorizations(interp)
        assert count == 1
        interp.run_packet(loop, Packet({"n": 0}))
        assert self.factorizations(interp) == count

    def test_seed_inside_solved_space_reuses_solve(self):
        interp = Interpreter()
        loop = self.walk_loop()
        interp.run_packet(loop, Packet({"n": 0}))
        count = self.factorizations(interp)
        # n=3 was reached (and solved) while exploring from n=0.
        interp.run_packet(loop, Packet({"n": 3}))
        assert self.factorizations(interp) == count

    def test_growth_factorizes_only_the_new_states(self):
        interp = Interpreter()
        body = s.case(
            [
                (s.test("n", i), s.choice((s.assign("n", i + 1), Fraction(1, 2)),
                                          (s.assign("n", i), Fraction(1, 2))))
                for i in range(6)
            ],
            s.drop(),
        )
        loop = s.while_do(s.neg(s.test("n", 6)), body)
        first = interp.run_packet(loop, Packet({"n": 4}))
        assert self.factorizations(interp) == 1
        solutions = interp._loop_solutions[id(loop)]
        before = {state: dist for state, dist in solutions.items()}
        # A second seed *below* the solved space grows the chain once more;
        # previously solved states keep their (final) solutions untouched.
        second = interp.run_packet(loop, Packet({"n": 0}))
        assert self.factorizations(interp) == 2
        for state, dist in before.items():
            assert solutions[state] is dist
        assert float(first(Packet({"n": 6}))) == pytest.approx(1.0)
        assert float(second(Packet({"n": 6}))) == pytest.approx(1.0)

    def test_incremental_solutions_match_fresh_interpreter(self):
        grown = Interpreter()
        loop = self.walk_loop()
        for start in (4, 2, 0):
            grown.run_packet(loop, Packet({"n": start}))
        fresh = Interpreter()
        fresh_out = fresh.run_packet(loop, Packet({"n": 0}))
        grown_out = grown.run_packet(loop, Packet({"n": 0}))
        assert grown_out.close_to(fresh_out, tolerance=1e-9)
        assert self.factorizations(grown) == 3
        assert self.factorizations(fresh) == 1

    def test_exact_mode_is_incremental_too(self):
        interp = Interpreter(exact=True)
        loop = self.walk_loop()
        out = interp.run_packet(loop, Packet({"n": 4}))
        assert out(Packet({"n": 6})) == 1
        assert self.factorizations(interp) == 1
        interp.run_packet(loop, Packet({"n": 5}))
        assert self.factorizations(interp) == 1


class TestCompiledBodyFastPath:
    """The interpreter's compiled-body exploration agrees with the AST walk."""

    def test_compiled_and_interpreted_loop_agree(self):
        body = s.case(
            [
                (s.test("sw", i), s.choice((s.assign("sw", i + 1), Fraction(9, 10)),
                                           (s.drop(), Fraction(1, 10))))
                for i in range(1, 5)
            ],
            s.drop(),
        )
        loop = s.seq(s.test("sw", 1), s.while_do(s.neg(s.test("sw", 5)), body))
        fast = Interpreter(exact=True)
        slow = Interpreter(exact=True, compile_bodies=False)
        pk = Packet({"sw": 1})
        assert fast.run_packet(loop, pk) == slow.run_packet(loop, pk)
        assert fast.loop_stats()["compiled_loops"] == 1
        assert slow.loop_stats()["compiled_loops"] == 0

    def test_compile_bodies_flag_defaults_on(self):
        assert Interpreter().compile_bodies
        assert not Interpreter(compile_bodies=False).compile_bodies
