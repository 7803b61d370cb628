"""Model construction's fast paths against the references they replaced.

Every builder here has a one-pass fast path — ``Policy._scan`` behind
``field_values`` / ``fields`` / ``size`` / ``is_guarded``, ``choice``'s
integer sum over the least common denominator, ``uniform``'s direct
``Choice``, ``Topology.program``'s per-switch port maps, ``build_model``'s
field table declared without a frame AST — and each must build exactly
what the slow path built: the same nodes (``==``), the same key order,
the same error text.  The references live in ``oracles.py``.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    choice_reference,
    field_values_reference,
    fields_reference,
    is_guarded_reference,
    size_reference,
    topology_program_reference,
)
from repro.core import syntax as s
from repro.core.fields import FieldTable
from repro.failure.models import failure_program, independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy, f10_model
from repro.topology import ab_fat_tree, fat_tree
from repro.topology.chain import chain_topology
from repro.topology import zoo
from test_compile_per_switch import network_programs
from test_properties import examples, guarded_programs, predicates

SETTINGS = settings(
    max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def outcome(build, *args):
    """What a builder returns, or the type and text of what it raises."""
    try:
        return "built", build(*args)
    except (TypeError, ValueError) as error:
        return type(error).__name__, str(error)


# -- one field walk ---------------------------------------------------------------

def general_programs():
    """Guarded programs mixed with the nodes the guarded fragment excludes."""
    sub = guarded_programs()
    return st.one_of(
        sub,
        network_programs().map(lambda parts: s.seq(*parts)),
        st.builds(lambda a, b: s.union(a, b), sub, sub),
        st.builds(s.star, sub),
        st.builds(lambda t, a, b: s.case([(t, a)], b), predicates(1), sub, sub),
        st.builds(lambda t, a: s.while_do(t, a), predicates(1), sub),
    )


@SETTINGS
@given(policy=general_programs())
def test_field_scan_matches_a_walk(policy):
    values = policy.field_values()
    reference = field_values_reference(policy)
    assert values == reference
    assert list(values) == list(reference)  # FieldTable keeps this order
    assert policy.fields() == fields_reference(policy)
    assert policy.size() == size_reference(policy)
    assert policy.is_guarded() == is_guarded_reference(policy)


def test_field_scan_on_a_model_keeps_first_mention_order():
    model = f10_model(ab_fat_tree(4), 1, max_failures=1, count_hops=True, max_hops=3)
    assert list(model.policy.field_values()) == list(field_values_reference(model.policy))
    assert not s.union(s.assign("f", 1), s.assign("f", 2)).is_guarded()
    assert s.union(s.test("f", 1), s.test("f", 2)).is_guarded()


# -- choice and uniform ---------------------------------------------------------------

POLICIES = [s.assign("f", 0), s.assign("f", 1), s.seq(s.assign("f", 1), s.assign("g", 2)), s.skip()]
policies = st.sampled_from(POLICIES) | st.builds(s.assign, st.just("f"), st.integers(0, 1))
weights = st.one_of(
    st.integers(-1, 2),
    st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 0.75, 1.0, 1.5, -0.25, 1 / 3]),
    st.builds(Fraction, st.integers(-2, 7), st.integers(1, 6)),
    st.booleans(),
)


@st.composite
def summing_to_one(draw):
    """Branch lists whose weights sum to exactly 1 (zeros and duplicates allowed)."""
    denominator = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, denominator), max_size=4)))
    bounds = [0, *cuts, denominator]
    return [
        (draw(policies), Fraction(high - low, denominator))
        for low, high in zip(bounds, bounds[1:])
    ]


branch_lists = st.one_of(
    summing_to_one(),
    st.lists(st.tuples(policies, weights), max_size=4),
    st.lists(st.tuples(st.sampled_from([*POLICIES, "not a policy"]), weights), max_size=3),
)


@SETTINGS
@given(branches=branch_lists)
@example(branches=[])
@example(branches=[(s.skip(), Fraction(3, 2)), (s.drop(), Fraction(-1, 2))])
@example(branches=[(s.assign("f", 0), 0.1), (s.assign("f", 0), 0.2), (s.assign("f", 1), 0.7)])
def test_choice_matches_the_fraction_sum(branches):
    got, want = outcome(s.choice, *branches), outcome(choice_reference, *branches)
    assert got == want
    if got[0] == "built" and isinstance(got[1], s.Choice):
        assert all(type(weight) is Fraction for _, weight in got[1].branches)


@SETTINGS
@given(members=st.lists(policies, max_size=5))
def test_uniform_is_choice_with_equal_shares(members):
    shares = [(policy, Fraction(1, len(members) or 1)) for policy in members]
    got = outcome(s.uniform, *members)
    if not members:
        assert got == ("ValueError", "uniform choice over no policies")
    else:
        assert got == outcome(s.choice, *shares) == outcome(choice_reference, *shares)


def test_uniform_rejects_what_choice_rejects():
    rejected = ("TypeError", "choice requires policies, got 'x'")
    assert outcome(choice_reference, (s.skip(), 0.5), ("x", 0.5)) == rejected
    assert outcome(s.uniform, s.skip(), "x") == rejected


# -- the topology program -----------------------------------------------------------

def topologies():
    six = fat_tree(6)
    cases = {
        "fat_tree(4)": (fat_tree(4), None),
        "fat_tree(6)": (six, None),
        "fat_tree(6)-failable": (six, downward_failable_ports(six)),
        "ab_fat_tree(4)": (ab_fat_tree(4), None),
        "chain(3)": (chain_topology(3), None),
    }
    cases.update({f"zoo:{name}": (zoo.load(name), None) for name in zoo.available_topologies()})
    return cases


@pytest.mark.parametrize("label", list(topologies()))
def test_topology_program_matches_switch_links(label):
    topology, failable = topologies()[label]
    assert topology.program(failable=failable) == topology_program_reference(topology, failable)


def test_directed_links_stay_sorted_by_str_then_port():
    topology = zoo.load(zoo.available_topologies()[0])
    links = list(topology.directed_links())
    assert [(str(link.node), link.port) for link in links] == sorted(
        (str(link.node), link.port) for link in links
    )
    assert {(link.node, link.port) for link in links} == {
        (node, port) for node in topology.nodes() for port in topology.ports(node)
    }
    assert all(topology.peer(link.node, link.port) == (link.peer, link.peer_port) for link in links)


# -- build_model's field table -------------------------------------------------------

def models():
    four, ab = fat_tree(4), ab_fat_tree(4)
    four_failable, ab_failable = downward_failable_ports(four), downward_failable_ports(ab)
    return {
        "fattree4-failures": lambda: build_model(
            four, routing=ecmp_policy(four, 1), dest=1, failable=four_failable,
            failure=independent_failure_program(four_failable, Fraction(1, 1000)),
        ),
        "fattree4-two-ingresses": lambda: build_model(
            four, routing=ecmp_policy(four, 3), dest=3, ingress=[(5, 3), (2, 3)]
        ),
        "f10_3_5-k2": lambda: f10_model(ab, 1, scheme="f10_3_5", max_failures=2),
        "f10_0-hops": lambda: f10_model(
            ab, 1, scheme="f10_0", max_failures=1, count_hops=True, max_hops=14
        ),
        "f0-extra-locals": lambda: build_model(
            ab, routing=ecmp_policy(ab, 1), dest=1, failable=ab_failable,
            failure=failure_program(ab_failable, 0.25, max_failures=0),
            count_hops=True, max_hops=0, extra_locals=[("detour", 0), ("scratch", 3)],
        ),
    }


@pytest.mark.parametrize("name", list(models()))
def test_field_table_is_the_policys_own(name):
    model = models()[name]()
    assert list(model.fields) == list(FieldTable.from_policy(model.policy))


# -- field values are integers -----------------------------------------------------

@pytest.mark.parametrize("build", [s.test, s.assign])
@pytest.mark.parametrize("value", [True, 1.5, 2.0, "3"])
def test_non_integer_field_values_are_rejected(build, value):
    message = f"field 'sw' takes an integer value, got {value!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        build("sw", value)


@pytest.mark.parametrize("build, node", [(s.test, s.Test), (s.assign, s.Assign)])
def test_numpy_integers_become_ints(build, node):
    built = build("pt", np.int64(3))
    assert built == node("pt", 3)
    assert type(built.value) is int
