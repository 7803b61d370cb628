"""The interpreter evaluates a model stage by stage, on the compiler's own runs.

A sequence's maximal loop-free runs are one compiled body each
(``Interpreter._stages``), and a spine-shaped body takes each switch's
diagram from ``Compiler.runs_per_value`` — the method ``_compile_seq``
joins.  Checked here without a clock: whole network-shaped models answer
as the pure AST walk does, the lazily requested diagram *is* the joined
one, only visited switches are compiled, and a run the compiler rejects
is interpreted part by part without regrouping itself.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import syntax as s
from repro.core.compiler import Compiler, GuardedFragmentError
from repro.core.fdd.evaluator import CompiledBody, dispatch_spine
from repro.core.interpreter import Interpreter
from repro.core.packet import Packet

from test_compile_per_switch import NET_INGRESS, NET_SWITCHES, fattree_model, network_programs
from test_properties import examples


def whole_model(parts: list[s.Policy], dest: int) -> s.Policy:
    """``lead ; hop ; while ¬(sw=dest) do hop ; pt<-0`` around a generated hop."""
    first = next(i for i, part in enumerate(parts) if isinstance(part, s.Case))
    hop = parts[first:]
    loop = s.while_do(s.neg(s.test("sw", dest)), s.Seq(tuple(hop)))
    return s.Seq((*parts, loop, s.assign("pt", 0)))


class TestWholeModelsAnswerLikeTheAstWalk:
    """ROADMAP 5(a), the interpreter's leg: a hop loop around ``network_programs``."""

    @settings(
        max_examples=examples(60),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(network_programs(), st.sampled_from(NET_SWITCHES))
    def test_generated_models(self, parts, dest):
        model = whole_model(parts, dest)
        staged = Interpreter(exact=True)
        floating = Interpreter()
        reference = Interpreter(exact=True, compile_bodies=False)
        for packet in NET_INGRESS:
            want = reference.run_packet(model, packet)
            got = staged.run_packet(model, packet)
            assert got == want, packet
            assert all(isinstance(mass, (Fraction, int)) for _, mass in got.items())
            assert floating.run_packet(model, packet).tv_distance(want) <= 1e-12, packet
        # Lead and first hop are one body; the loop's and ``pt<-0`` the others.
        assert staged.loop_stats()["compiled_bodies"] <= 3

    def test_a_loop_free_sequence_is_one_body(self):
        half = Fraction(1, 2)
        flip = s.choice((s.assign("f", 1), half), (s.assign("f", 0), half))
        program = s.Seq((flip, s.ite(s.test("f", 1), s.assign("g", 1)), s.assign("f", 0)))
        interp = Interpreter(exact=True)
        out = interp.run_packet(program, Packet({"f": 0, "g": 0}))
        assert out == Interpreter(exact=True, compile_bodies=False).run_packet(
            program, Packet({"f": 0, "g": 0})
        )
        assert interp.loop_stats()["compiled_bodies"] == 1
        assert interp.loop_stats()["body_runs"] == 1


class TestOneDefinitionOfASwitchsRun:
    @settings(
        max_examples=examples(60),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(network_programs())
    def test_the_lazy_diagram_is_the_node_the_join_joins(self, parts):
        """For switches with a role and without: one method, one interned node."""
        parts = tuple(parts)
        assume(dispatch_spine(parts) is not None)
        program = s.Seq(parts)
        asked: list[str] = []
        joined: dict[int, object] = {}

        class Spy(Compiler):
            def runs_per_value(self, seq_parts, spine):
                field, values, at, default = super().runs_per_value(seq_parts, spine)
                if seq_parts is not parts:
                    return field, values, at, default
                asked.append(self.asker)

                def recorded(value):
                    node = at(value)
                    if self.asker == "join":
                        joined[value] = node
                    return node

                return field, values, recorded, default

        joiner = Spy(exact=True)
        joiner.asker = "join"
        joiner.compile_unreduced(program)
        lazy = Spy(manager=joiner.manager, exact=True)  # remembers nothing of the program
        lazy.asker = "body"
        body = CompiledBody.try_compile(program, lazy, exact=True)
        assert asked == ["join", "body"]
        (segment,) = body._segments
        assert body.stats()["compiled_branches"] == 0
        for value, node in joined.items():
            assert segment._fdd_for(Packet({segment.field: value})) is node
        assert body.stats()["compiled_branches"] == len(joined) > 0


class TestOnlyVisitedSwitchesCompile:
    def test_one_ingress_of_fattree8_ecmp(self):
        model = fattree_model(8, True)
        interp = Interpreter()
        ingress = model.ingress_packets[-1]
        dist = interp.run_packet(model.policy, ingress)
        assert abs(float(dist.total_mass()) - 1) < 1e-12
        visited = {ingress.get("sw")} | {
            state.get("sw") for rows in interp._loop_rows.values() for state in rows
        }
        # Five layers up and down, not the 80 switches of the model.
        assert 1 < len(visited) < 30
        bodies = [body for _, body in interp._compiled.values() if body is not None]
        assert len(bodies) == interp.loop_stats()["compiled_bodies"]
        # Two stages dispatch per switch: lead with first hop, and the loop body.
        stages = [body for body in bodies if body.stats()["case_segments"]]
        assert len(stages) == 2
        for body in stages:
            assert body.stats()["segments"] == 1
            assert 0 < body.stats()["compiled_branches"] <= len(visited)
        counters = interp.body_compiler().manager.counters
        assert counters["compile_roles"] <= 7 * len(stages)
        assert counters["role_instances"] <= 2 * len(visited)


class TestARejectedRunIsInterpretedPartByPart:
    """A run without a body falls back to its parts and never regroups itself."""

    class Rejecting(Compiler):
        """Refuses every sequence and every per-switch run; parts compile."""

        def compile_unreduced(self, policy):
            if isinstance(policy, s.Seq):
                raise GuardedFragmentError("stub: no sequences")
            return super().compile_unreduced(policy)

        def runs_per_value(self, parts, spine):
            raise GuardedFragmentError("stub: no runs")

    def programs(self):
        half = Fraction(1, 2)
        flip = s.choice((s.assign("f", 1), half), (s.assign("f", 0), half))
        move = s.case([(s.test("sw", v), s.assign("sw", v + 1)) for v in range(3)], s.drop())
        run = (flip, s.ite(s.test("f", 1), s.assign("g", 1), s.assign("g", 0)), move)
        loop = s.while_do(s.test("f", 0), flip)
        yield s.Seq(run)  # one single run: the sequence itself
        yield s.Seq((*run, loop, *run))  # two grouped runs around a loop
        yield s.Seq((run[0], loop, *run, loop))

    def test_same_answers_under_a_low_recursion_limit(self):
        packet = Packet({"sw": 0, "f": 0, "g": 0})
        for program in self.programs():
            want = Interpreter(exact=True, compile_bodies=False).run_packet(program, packet)
            interp = Interpreter(exact=True, compiler=self.Rejecting(exact=True))
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(150)
            try:
                got = interp.run_packet(program, packet)
                again = interp.run_packet(program, packet)
            finally:
                sys.setrecursionlimit(limit)
            assert got == again == want
            # No run got a body; every part that is not a sequence did.
            assert all(
                not isinstance(policy, s.Seq)
                for policy, body in interp._compiled.values()
                if body is not None
            )
