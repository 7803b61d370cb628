"""The handoff between stages on class codes, held to the per-packet one it replaced.

A batch is classified once, over its plan's layout, and its columns stay
class codes (plus a residual id) from the first stage to the last: each
stage maps them down to its own layout, takes the rows of their classes
and maps the outcomes back up; packets are decoded once, after the last
stage.  Held here, without a clock, to the per-packet handoff it
replaced (``oracles.class_handoff_reference``: classify every outcome
packet at every stage, decode every (class, residual) back to a packet):
after every stage the same outcome table, the same CSR rows, bit-equal
float masses and ``==`` exact ones — on generated network programs, the
fig7 and F10 fixtures, a loop that writes a wildcard field, one ingress
per call and a batch after ``reset_solutions``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import MatrixBackend
from repro.core import syntax as s
from repro.core.fdd.flat import Columns
from repro.core.packet import DROP, Packet
from repro.routing import f10_model
from repro.topology import ab_fat_tree, edge_switches

from oracles import class_handoff_reference
from test_compile_per_switch import NET_INGRESS, NET_SWITCHES, fattree_model, network_programs
from test_frontier_walk import WIDE, wide_loop
from test_indexed_chain import hop_loop
from test_interpreter_stages import whole_model
from test_properties import examples
from test_query_path import BATCH


def assert_handoff_is_the_reference(backend: MatrixBackend, policy, packets) -> None:
    """``backend``'s batch after every stage is the per-packet handoff's."""
    backend.output_distributions(policy, packets)  # solves every loop the batch enters
    plan = backend.plan(policy)
    got = list(backend._stagewise(plan, packets))
    want = class_handoff_reference(backend, plan, packets)
    assert len(got) == len(want) == len(plan.stages) + 1
    for mine, theirs in zip(got, want):
        # Between stages the outcome columns are still classes.
        outcomes = mine.outcomes
        if isinstance(outcomes, Columns):
            outcomes = outcomes.decode()
        assert list(outcomes) == list(theirs.outcomes)
        assert mine.indptr.tolist() == theirs.indptr.tolist()
        assert mine.indices.tolist() == theirs.indices.tolist()
        assert mine.data.dtype == theirs.data.dtype
        if theirs.data.dtype == object:
            assert mine.data.tolist() == theirs.data.tolist()
            assert all(type(mass) is Fraction for mass in mine.data.tolist())
        else:
            assert mine.data.tobytes() == theirs.data.tobytes()  # bit-equal
    # Packets are decoded after the last stage only, one per outcome column.
    assert all(answer.decoded == 0 for answer in got[:-1])
    assert got[-1].decoded == sum(outcome is not DROP for outcome in got[-1].outcomes)


@settings(
    max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(network_programs(), st.sampled_from(NET_SWITCHES), st.booleans())
def test_generated_network_programs(parts, dest, whole):
    policy = whole_model(parts, dest) if whole else hop_loop(parts)
    assert_handoff_is_the_reference(MatrixBackend(), policy, NET_INGRESS)


@settings(
    max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(network_programs(), st.permutations(NET_INGRESS[:12] + BATCH))
def test_loop_free_programs_keep_exact_masses(parts, batch):
    assert_handoff_is_the_reference(MatrixBackend(), s.Seq(tuple(parts)), batch)


@pytest.mark.parametrize("k", [4, 6])
def test_fig7_with_failures(k):
    model = fattree_model(k, True)
    assert_handoff_is_the_reference(MatrixBackend(), model.policy, model.ingress_packets)


@pytest.mark.parametrize("scheme", ["f10_0", "f10_3", "f10_3_5"])
def test_f10_schemes(scheme):
    topology = ab_fat_tree(6)
    model = f10_model(
        topology,
        edge_switches(topology)[1],
        scheme=scheme,
        failure_probability=Fraction(1, 1000),
        max_failures=3,
    )
    assert_handoff_is_the_reference(MatrixBackend(), model.policy, model.ingress_packets)


def test_a_loop_that_writes_a_wildcard_field():
    """g=9 and g=8 are wildcards of g's domain {1} until the loop writes g=1."""
    step = s.ite(s.test("f", 0), s.assign("f", 1), s.assign("f", 2))
    coin = s.choice((s.assign("g", 1), Fraction(1, 2)), (s.skip(), Fraction(1, 2)))
    loop = s.while_do(s.neg(s.test("f", 2)), s.seq(step, coin))
    batch = [Packet({"f": 0, "g": 9, "h": 1}), Packet({"f": 1, "g": 9, "h": 1}),
             Packet({"f": 0, "g": 8, "h": 1}), Packet({"f": 0, "g": 1}),
             Packet({"f": 0, "g": 5}), *BATCH]
    assert_handoff_is_the_reference(MatrixBackend(), loop, batch)
    assert_handoff_is_the_reference(MatrixBackend(), s.seq(loop, s.assign("h", 2)), batch)
    # g=5 has a code in the plan (the head tests it) but none in the loop's
    # or the tail's layout: both keep it as it is.  Without residuals (every
    # value of the second batch has a code) the stages lift their outcomes
    # by stage class and what a column holds outside the stage.
    head = s.ite(s.test("g", 5), s.assign("h", 3))
    tail = s.ite(s.test("g", 1), s.assign("h", 2))
    coded = [Packet({"f": f, "g": g}) for f in (0, 1, 2) for g in (1, 5)]
    for packets in (batch, coded, coded[::-1]):
        assert_handoff_is_the_reference(MatrixBackend(), s.seq(head, loop, tail), packets)


def test_a_stage_keeps_what_it_does_not_hold():
    """The loop holds only f; columns it sends to one class differ in g."""
    loop = s.while_do(s.test("f", 1), s.assign("f", 2))
    tail = s.ite(s.test("g", 5), s.assign("h", 1), s.ite(s.test("g", 7), s.assign("h", 2)))
    coded = [Packet({"f": f, "g": g}) for f in (1, 2) for g in (5, 7)]
    assert_handoff_is_the_reference(MatrixBackend(), s.seq(s.assign("f", 1), loop, tail), coded)


def test_drop_is_one_column_of_its_own():
    """Not the class with every field a wildcard (the empty packet's)."""
    policy = s.ite(s.test("f", 1), s.drop())
    assert_handoff_is_the_reference(MatrixBackend(), policy, BATCH)
    half = Fraction(1, 2)
    loop = s.while_do(s.test("f", 1), s.choice((s.drop(), half), (s.assign("f", 2), half)))
    assert_handoff_is_the_reference(MatrixBackend(), loop, BATCH)


def test_one_ingress_per_call_and_after_a_reset():
    model = fattree_model(4, True)
    packets = model.ingress_packets
    whole = MatrixBackend().output_distributions(model.policy, packets)
    fed = MatrixBackend()
    for packet in packets:
        assert_handoff_is_the_reference(fed, model.policy, [packet])
        assert fed.output_distributions(model.policy, [packet])[packet].close_to(
            whole[packet], tolerance=1e-12
        )
    fed.reset_solutions()
    assert_handoff_is_the_reference(fed, model.policy, packets)
    again = fed.output_distributions(model.policy, packets)
    assert all(again[packet] == whole[packet] for packet in packets)


def test_a_plan_layout_wider_than_one_key_word():
    """Two-word class keys: a head that tests a value the loop does not
    mention and drops on it, then a loop that writes fields a residual
    holds and drops what its case misses."""
    head = s.ite(s.test("g3", WIDE + 99), s.drop(), s.skip())
    policy = s.seq(head, wide_loop())
    packets = [
        Packet({"f": WIDE}),
        Packet({"f": 17, "g3": 5}),
        Packet({"f": 0, "h": 1}),
        Packet({"f": 17, "h": 1}),
        Packet({"f": 17, "g2": WIDE + 700, "h": 1}),  # the loop writes g2: it leaves the residual
        Packet({}),  # every field a wildcard, as drop's class is
        Packet({"f": WIDE + 100}),  # no case of the loop's: dropped there
        Packet({"f": 5, "g3": WIDE + 99}),  # dropped by the head
    ]
    backend = MatrixBackend()
    plan = backend.plan(policy)
    assert len(plan.stages) == 2 and plan.projections[0].plan.words == 2
    assert_handoff_is_the_reference(backend, policy, packets)
