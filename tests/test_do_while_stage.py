"""The do-while loop stage: ``b ; while g do b`` is planned as one loop stage.

A network model is ``in ; hop ; while ¬out do hop``: its first hop is
its loop body.  The matrix backend's plan compiles the hop once — a
packet the guard holds on enters the loop's chain directly, any other
takes one body row first — and the stage that does so is rebuilt one way,
whether it is reset, shipped to a worker or planned afresh.  Checked
without a clock: answers against the pure AST walk within 1e-12 total
variation, and the three rebuilt plans against each other by ``==``.
"""

from __future__ import annotations

import copy
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import MatrixBackend
from repro.core import syntax as s
from repro.core.interpreter import Interpreter
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.topology import edge_switches, fat_tree

from test_compile_per_switch import NET_INGRESS, NET_SWITCHES, fattree_model, network_programs
from test_interpreter_stages import whole_model
from test_properties import examples

TOLERANCE = 1e-12


def assert_like_the_ast_walk(policy: s.Policy, packets) -> dict:
    """Matrix answers within ``TOLERANCE`` total variation of the pure AST walk."""
    got = MatrixBackend().output_distributions(policy, packets)
    reference = Interpreter(exact=True, compile_bodies=False)
    for packet in packets:
        assert got[packet].tv_distance(reference.run_packet(policy, packet)) <= TOLERANCE, packet
    return got


def loop_kinds(policy: s.Policy) -> list[bool]:
    return [stage.do_while for stage in MatrixBackend().plan(policy).loop_stages]


def failing_fattree4(**options):
    topology = fat_tree(4)
    dest = edge_switches(topology)[0]
    failable = downward_failable_ports(topology)
    return build_model(
        topology,
        routing=ecmp_policy(topology, dest),
        dest=dest,
        failure=independent_failure_program(failable, Fraction(1, 1000)),
        failable=failable,
        **options,
    )


# ---------------------------------------------------------------------------
# the unfolding, differentially
# ---------------------------------------------------------------------------

@settings(
    max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(network_programs(), st.sampled_from(NET_SWITCHES))
def test_generated_hop_loops_answer_like_the_ast_walk(parts, dest):
    """Ingresses at ``dest`` fail the guard on entry; the others enter the chain."""
    policy = whole_model(parts, dest)
    assert loop_kinds(policy) == [True]
    assert_like_the_ast_walk(policy, NET_INGRESS)


def test_an_ingress_at_the_destination_takes_one_body_row_first():
    model = failing_fattree4(ingress=fat_tree(4).ingress_locations())
    at_dest = [packet for packet in model.ingress_packets if packet["sw"] == model.dest]
    assert at_dest and len(at_dest) < len(model.ingress_packets)
    assert loop_kinds(model.policy) == [True]
    got = assert_like_the_ast_walk(model.policy, model.ingress_packets)
    # The hop moves such a packet away from the destination, and the loop
    # brings it back: it is not simply let through.
    for packet in at_dest:
        assert packet not in got[packet].support()


def test_a_tail_with_the_bodys_text_but_not_its_parts_stays_a_plain_loop():
    model = failing_fattree4()
    parts = model.policy.parts
    at = next(i for i, part in enumerate(parts) if isinstance(part, s.WhileDo))
    hop = parts[at].body.parts
    start = at - len(hop)
    assert parts[start:at] == hop
    copied = [copy.deepcopy(part) for part in hop]
    assert copied == list(hop) and all(a is not b for a, b in zip(copied, hop))
    unrolled = s.Seq((*parts[:start], *copied, *parts[at:]))
    assert loop_kinds(unrolled) == [False]
    plain = assert_like_the_ast_walk(unrolled, model.ingress_packets)
    unfolded = MatrixBackend().output_distributions(model.policy, model.ingress_packets)
    for packet in model.ingress_packets:
        assert plain[packet].tv_distance(unfolded[packet]) <= TOLERANCE


def test_a_hop_counter_model():
    model = failing_fattree4(count_hops=True, max_hops=6)
    assert loop_kinds(model.policy) == [True]
    assert_like_the_ast_walk(model.policy, model.ingress_packets)


# ---------------------------------------------------------------------------
# one way to rebuild a stage
# ---------------------------------------------------------------------------

def key_from_stages(backend: MatrixBackend, plan) -> tuple:
    """``plan_key`` computed afresh from the plan's current stages."""
    specs = backend._stage_specs(dataclasses.replace(plan, specs=None))
    return ("fdd-stages", tuple(entry[:3] for entry in specs))


@pytest.fixture(scope="module")
def model():
    return fattree_model(4, True)


def test_a_reset_an_adopted_and_a_fresh_plan_agree(model):
    policy, packets = model.policy, model.ingress_packets
    fresh = MatrixBackend()
    want = fresh.output_distributions(policy, packets)
    key = fresh.plan_key(policy)
    assert [entry[0] for entry in key[1]] == ["fdd", "do-while", "fdd"]
    assert key_from_stages(fresh, fresh.plan(policy)) == key

    reset = MatrixBackend()
    reset.output_distributions(policy, packets)
    reset.reset_solutions()
    plan = reset.plan(policy)
    (stage,) = plan.loop_stages
    assert stage.do_while and stage.matrix is None and not len(stage.rows)
    assert reset.output_distributions(policy, packets) == want
    assert key_from_stages(reset, plan) == reset.plan_key(policy) == key

    adopted = MatrixBackend()
    plan = adopted.adopt_plan("shipped", *fresh.plan_payload(policy))
    assert [stage.do_while for stage in plan.loop_stages] == [True]
    assert adopted.query_plan("shipped", packets) == want
    assert key_from_stages(adopted, plan) == key
    assert adopted.ast_compilations == 0


def test_fresh_keeps_every_compiled_attribute_and_nothing_solved(model):
    backend = MatrixBackend()
    backend.output_distributions(model.policy, model.ingress_packets)
    (stage,) = backend.plan(model.policy).loop_stages
    again = stage.fresh()
    compiled = ("loop", "guard_fdd", "body_fdd", "domains", "do_while", "watch")
    assert all(getattr(again, name) is getattr(stage, name) for name in compiled)
    assert len(stage.rows) and not len(again.rows) and again.matrix is None
    assert type(stage).from_spec(backend.manager, stage.spec(), stage.watch).spec() == stage.spec()
