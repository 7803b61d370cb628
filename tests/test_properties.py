"""Property-based tests: the three executable semantics agree on random programs.

Hypothesis generates random guarded, history-free programs over a small
field domain; for every concrete input packet we require that

* the FDD compiler (exact arithmetic),
* the forward interpreter (exact arithmetic), and
* the reference denotational semantics (restricted to singleton inputs)

produce the same output distribution, and that this distribution has total
mass one.  This is an executable form of Theorem 3.1 specialised to the
single-packet state space the implementation uses.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import syntax as s
from repro.core.compiler import compile_policy
from repro.core.fdd.node import FddManager, output_distribution as fdd_output
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP, Packet, PacketUniverse
from repro.core.semantics.denotational import eval_policy

FIELDS = ["f", "g"]
VALUES = [0, 1, 2]


def examples(count: int) -> int:
    """A property test's ``max_examples``: ``count`` by default, scaled by
    the loaded profile's own factor (4× under ``explore``, see conftest.py)."""
    return count * settings.default.max_examples // settings.get_profile("tier1").max_examples


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


def loop_free(depth: int = 2):
    base = st.one_of(assigns, predicates(1))
    if depth == 0:
        return base
    sub = loop_free(depth - 1)
    probability = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    return st.one_of(
        base,
        st.builds(lambda a, b: s.seq(a, b), sub, sub),
        st.builds(
            lambda a, b, r: s.choice((a, r), (b, 1 - r)), sub, sub, probability
        ),
        st.builds(s.ite, predicates(1), sub, sub),
    )


def guarded_programs():
    # A loop-free prefix followed by a (probabilistically terminating) loop.
    def attach_loop(prefix, guard, flip):
        body = s.choice((s.assign("f", 2), Fraction(1, 2)), (flip, Fraction(1, 2)))
        return s.seq(prefix, s.while_do(s.conj(guard, s.neg(s.test("f", 2))), body))

    return st.one_of(
        loop_free(2),
        st.builds(attach_loop, loop_free(1), predicates(1), loop_free(1)),
    )


UNIVERSE = PacketUniverse({"f": VALUES, "g": VALUES})


def reference_output(policy: s.Policy, packet: Packet):
    dist = eval_policy(policy, frozenset([packet]), max_star_iterations=400, tolerance=1e-13)
    return dist.map(lambda outputs: next(iter(outputs)) if outputs else DROP)


@settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(policy=loop_free(2), packet=st.sampled_from(list(UNIVERSE.packets)))
def test_loop_free_semantics_agree(policy, packet):
    via_fdd = fdd_output(compile_policy(policy, exact=True), packet)
    via_interp = Interpreter(exact=True).run_packet(policy, packet)
    via_reference = reference_output(policy, packet)
    assert via_fdd == via_interp
    assert via_fdd.close_to(via_reference, tolerance=1e-9)
    assert via_fdd.total_mass() == 1


@settings(max_examples=examples(30), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(policy=guarded_programs(), packet=st.sampled_from(list(UNIVERSE.packets)))
def test_guarded_semantics_agree(policy, packet):
    via_fdd = fdd_output(compile_policy(policy, exact=True), packet)
    via_interp = Interpreter(exact=True).run_packet(policy, packet)
    assert via_fdd.close_to(via_interp, tolerance=1e-9)
    assert float(via_fdd.total_mass()) == pytest.approx(1.0, abs=1e-9)
    via_reference = reference_output(policy, packet)
    assert via_fdd.close_to(via_reference, tolerance=1e-6)


@settings(max_examples=examples(40), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(policy=loop_free(2))
def test_compilation_is_deterministic_and_canonical(policy):
    manager = FddManager()
    first = compile_policy(policy, manager=manager, exact=True)
    second = compile_policy(policy, manager=manager, exact=True)
    assert first is second


@settings(max_examples=examples(40), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(policy=loop_free(2), packet=st.sampled_from(list(UNIVERSE.packets)))
def test_sequencing_with_skip_and_drop(policy, packet):
    interp = Interpreter(exact=True)
    assert interp.run_packet(s.seq(policy, s.skip()), packet) == interp.run_packet(policy, packet)
    assert interp.run_packet(s.seq(s.drop(), policy), packet) == interp.run_packet(
        s.drop(), packet
    )


@settings(max_examples=examples(40), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    policy=loop_free(1),
    other=loop_free(1),
    r=st.sampled_from([Fraction(1, 4), Fraction(1, 2)]),
    packet=st.sampled_from(list(UNIVERSE.packets)),
)
def test_choice_is_convex_combination(policy, other, r, packet):
    interp = Interpreter(exact=True)
    combined = interp.run_packet(s.choice((policy, r), (other, 1 - r)), packet)
    left = interp.run_packet(policy, packet)
    right = interp.run_packet(other, packet)
    outcomes = left.support() | right.support() | combined.support()
    for outcome in outcomes:
        assert combined(outcome) == r * left(outcome) + (1 - r) * right(outcome)
