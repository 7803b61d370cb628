"""The frontier walk: a loop stage's chain explored one BFS frontier at a time.

A stage's diagrams are flattened once over its class layout
(``FlatDiagram``) and a class is a row of int codes with one
fixed-width key, so ``ClassChain.explore`` takes a whole frontier per
step.  Held here, without a clock, to the class-by-class walk it
replaced (``oracles.class_chain_reference``): the same classes in the
same discovery order and the same rows with bit-equal floats — on
generated network programs, the fig7 and F10 fixtures, a leaf whose
actions meet, a layout wider than one 63-bit key word and raw diagrams
— and a ``limit`` that rolls the chain back.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import MatrixBackend
from repro.core import syntax as s
from repro.core.compiler import compile_policy
from repro.core.fdd import matrix as matrix_module
from repro.core.fdd.flat import ClassLayout, FlatDiagram
from repro.core.fdd.matrix import (
    ClassChain,
    DomainTooLargeError,
    SymbolicPacket,
    fdd_to_matrix,
    matrix_domains,
)
from repro.core.fdd.node import leaf_of
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP, Packet

from oracles import (
    class_chain_reference,
    class_row_reference,
    fdd_to_matrix_reference,
    matrices_identical,
)
from test_compile_per_switch import (
    NET_INGRESS,
    NET_SWITCHES,
    f10_batch_model,
    fattree_model,
    network_programs,
)
from test_interpreter_stages import whole_model
from test_properties import examples
from test_query_path import BATCH, raw_diagrams


def chain_rows(chain: ClassChain) -> dict:
    """Every stored row of ``chain`` as ``(successor, probability)`` pairs."""
    states = chain.states
    owners, indptr, successors, probabilities = chain.rows_from(0)
    bounds = indptr.tolist()
    successors, probabilities = successors.tolist(), probabilities.tolist()
    return {
        states[owner]: [
            (states[j], p) for j, p in zip(successors[start:stop], probabilities[start:stop])
        ]
        for owner, start, stop in zip(owners.tolist(), bounds, bounds[1:])
    }


def assert_chain_is_the_reference(stage) -> None:
    """``stage``'s chain, explored in one call, against the per-class walk."""
    states, rows = class_chain_reference(
        stage.body_fdd, stage.seed_order, lambda cls: not stage.guard_holds(cls)
    )
    chain = stage.chain
    assert chain.states[1:] == states
    got = chain_rows(chain)
    assert got.keys() == rows.keys()
    for cls, row in rows.items():
        assert got[cls] == row  # the same pairs in the same order: bit-equal floats
    # A do-while's first body rows come from the same walk of the same arrays.
    flat = chain.flat
    assert all(
        [
            (outcome if outcome is DROP else chain.decode(outcome), p)
            for outcome, p in flat.rows([stage.layout.encode(cls.values)])[0].items()
        ]
        == class_row_reference(stage.body_fdd, cls)
        for cls in states
    )


@settings(
    max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(network_programs(), st.sampled_from(NET_SWITCHES))
def test_the_frontier_walk_is_the_per_class_walk_on_network_programs(parts, dest):
    policy = whole_model(parts, dest)
    backend = MatrixBackend()
    backend.output_distributions(policy, NET_INGRESS)
    (stage,) = backend.plan(policy).loop_stages
    assert_chain_is_the_reference(stage)


@pytest.mark.parametrize("block", [4096, 5], ids=["whole-frontiers", "blocks-of-5"])
@pytest.mark.parametrize(
    "build, depth",
    [(lambda: fattree_model(4, True), 4), (f10_batch_model, 5)],
    ids=["fig7-k4-failures", "f10_3-k6"],
)
def test_the_frontier_walk_is_the_per_class_walk_on_the_fixtures(build, depth, block, monkeypatch):
    # A frontier wider than a block is stepped a block at a time.
    monkeypatch.setattr(matrix_module, "_CLASSES_PER_BLOCK", block)
    model = build()
    backend = MatrixBackend()
    backend.output_distributions(model.policy, model.ingress_packets)
    (stage,) = backend.plan(model.policy).loop_stages
    assert_chain_is_the_reference(stage)
    # One array step per BFS level.
    assert stage.chain.frontier_steps == backend.solver_stats()["frontier_steps"] == depth


def test_two_actions_that_reach_one_class_are_one_entry():
    third = Fraction(1, 3)
    body = compile_policy(
        s.choice((s.assign("f", 1), third), (s.skip(), third), (s.drop(), third)), exact=True
    )
    seeds = [SymbolicPacket({"f": value}) for value in (1, 0, None)]
    chain = ClassChain(body, ClassLayout(matrix_domains(body, {"f": [0]})))
    chain.explore([chain.layout.encode(cls.values) for cls in seeds])
    rows = chain_rows(chain)
    _states, want = class_chain_reference(body, seeds)
    assert rows == want
    one = SymbolicPacket({"f": 1})
    # f=1 meets itself twice: one entry, the masses added in action order.
    assert rows[one] == [(one, 0.0 + float(third) + float(third)), (DROP, float(third))]
    assert len(rows[SymbolicPacket({"f": 0})]) == 3


def test_a_limit_raises_and_rolls_the_chain_back():
    model = f10_batch_model()
    backend = MatrixBackend()
    backend.output_distributions(model.policy, model.ingress_packets)
    (stage,) = backend.plan(model.policy).loop_stages
    seeds = [stage.layout.encode(cls.values) for cls in stage.seed_order]

    def absorbing(codes):
        return ~stage.guard.holds(codes)

    chain = ClassChain(stage.body_fdd, stage.layout, stage.chain.flat)
    chain.explore(seeds[:4], absorbing)
    rest = stage.layout.array(seeds[4:])

    def snapshot():
        return (
            chain.states, chain_rows(chain), chain.frontier_steps,
            chain.transient.tolist(), chain.states_of(rest).tolist(),
        )

    before = snapshot()
    with pytest.raises(DomainTooLargeError):
        chain.explore(seeds[4:], absorbing, limit=len(chain) + 10)
    assert snapshot() == before
    # Continued without a limit, it holds what one call over every seed holds.
    chain.explore(seeds[4:], absorbing)
    assert set(chain.states) == set(stage.chain.states)
    assert chain_rows(chain) == chain_rows(stage.chain)


#: A loop whose layout needs two key words: eight fields of 301 codes (65.9 bits).
WIDE = 300


def wide_loop() -> s.Policy:
    hop = s.case(
        [
            (
                s.test("f", v),
                s.seq(
                    s.assign("f", v - 1),
                    *(s.assign(f"g{j}", (7 * v + 13 * j) % WIDE) for j in range(7)),
                ),
            )
            for v in range(1, WIDE + 1)
        ],
        s.drop(),
    )
    return s.while_do(s.neg(s.test("f", 0)), hop)


def test_a_layout_wider_than_one_key_word_takes_the_same_walk():
    policy = wide_loop()
    packets = [Packet({"f": WIDE}), Packet({"f": 17, "g3": 5}), Packet({"f": 0, "h": 1})]
    backend = MatrixBackend()
    got = backend.output_distributions(policy, packets)
    (stage,) = backend.plan(policy).loop_stages
    assert stage.layout.words == 2 and stage.chain.flat.layout is stage.layout
    assert_chain_is_the_reference(stage)
    # f = WIDE .. 0 from the first seed, the second seed's own class, and drop.
    assert len(stage.chain) == WIDE + 3
    oracle = Interpreter(exact=True, compile_bodies=False)
    for packet in packets:
        assert got[packet].tv_distance(oracle.run_packet(policy, packet)) <= 1e-12
    # The one-shot front door over the same wide layout.
    def convert(convert_fdd):
        return convert_fdd(
            stage.body_fdd,
            stage.domains,
            seeds=stage.seed_order,
            absorbing_when=lambda cls: not stage.guard_holds(cls),
        )

    matrices_identical(convert(fdd_to_matrix), convert(fdd_to_matrix_reference), tolerance=0.0)


def test_keys_are_equal_exactly_when_classes_are():
    layout = ClassLayout(
        {"a": [3, 1], "b": range(WIDE), **{f"c{j}": range(WIDE) for j in range(7)}}
    )
    assert layout.words == 2
    top = (2, WIDE, WIDE, WIDE, WIDE, WIDE, WIDE, WIDE, WIDE)
    rows = [
        (0,) * 9,
        top,
        top[:-1] + (0,),  # top but for the second word
        (1,) + top[1:],  # top but for the first word
        (0, 1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 1),
        top,
    ]
    keys = layout.keys(layout.array(rows)).tolist()
    assert [keys.index(key) for key in keys] == [rows.index(row) for row in rows]


@settings(max_examples=examples(300), deadline=None)
@given(raw_diagrams(), st.lists(st.sampled_from(BATCH), min_size=1, max_size=6))
def test_the_flat_walk_reaches_the_leaf_leaf_of_reaches(node, batch):
    layout = ClassLayout(matrix_domains(node, {"f": [0], "g": [1]}))
    flat = FlatDiagram(node, layout)
    reached = flat.leaves_of(layout.array([layout.classify(packet)[0] for packet in batch]))
    for packet, leaf in zip(batch, reached.tolist()):
        assert flat.leaves[leaf] is leaf_of(node, packet.get)
