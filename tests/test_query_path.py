"""The matrix backend's query path, per distinct outcome — checked without a clock.

Three shortcuts took decode off the ledger: a batch's columns stay
classes plus a *residual* from the first stage to the last and are
decoded once, every diagram is descended through per-chain jump tables,
and the absorption solver is built on index arrays.  Each is held here
to the path it replaced — the AST interpreter, the linear walk, the
dict-based solver kept in ``oracles.py`` — by identity, exact equality
or a tolerance fixed beforehand, and by counts; never by timing.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import MatrixBackend
from repro.backends.matrix import _LoopStage
from repro.core import syntax as s
from repro.core.compiler import Compiler
from repro.core.fdd.flat import Columns
from repro.core.fdd.node import (
    Branch,
    FddManager,
    FddNode,
    Leaf,
    evaluate,
    iter_nodes,
    leaf_of,
)
from repro.core.interpreter import Interpreter
from repro.core.markov import solve_absorption_batched
from repro.core.packet import DROP, Packet
from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.topology import fat_tree

from oracles import per_packet_distributions, solve_absorption_reference
from test_compile_per_switch import f10_batch_model, fattree_model
from test_exact_solver import ABSORBING, SHAPES, sparse_chains
from test_properties import examples, guarded_programs

# ---------------------------------------------------------------------------
# (i) backend == AST interpreter where residual-keyed concretisation could err
# ---------------------------------------------------------------------------

#: ``test_properties`` programs mention f, g ∈ {0, 1, 2}.  These packets
#: carry a field no program mentions (h), tested fields at values no
#: program mentions (wildcards), lack a tested field altogether, and come
#: in pairs of one class with different residuals.
BATCH = [
    Packet({"f": 0, "g": 1}),
    Packet({"f": 0, "g": 1, "h": 7}),
    Packet({"f": 0, "g": 1, "h": 8}),
    Packet({"f": 9, "g": 0}),
    Packet({"f": 8, "g": 0, "h": 7}),
    Packet({"f": 9, "g": 5, "h": 7}),
    Packet({"g": 2}),
    Packet({"g": 2, "h": 1}),
    Packet({"f": 1}),
    Packet({}),
]


@settings(
    max_examples=examples(120), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(guarded_programs(), st.permutations(BATCH), st.integers(min_value=0, max_value=len(BATCH)))
def test_backend_equals_the_ast_interpreter_on_residual_batches(policy, batch, cut):
    oracle = Interpreter(exact=True, compile_bodies=False)
    want = {packet: oracle.run_packet(policy, packet) for packet in batch}
    got = MatrixBackend().output_distributions(policy, batch)
    loop_free = not any(isinstance(node, s.WhileDo) for node in policy.walk())
    for packet in batch:
        if loop_free:
            assert got[packet] == want[packet]
            assert all(type(mass) is Fraction for _, mass in got[packet].items())
        else:
            assert got[packet].close_to(want[packet], tolerance=1e-9)
    # The same batch in two calls — a growth step of every cache — is one call.
    grown = MatrixBackend()
    split = dict(grown.output_distributions(policy, batch[:cut]))
    split.update(grown.output_distributions(policy, batch[cut:]))
    assert {p: list(d.items()) for p, d in split.items()} == {
        p: list(d.items()) for p, d in got.items()
    }


def test_concretisation_depends_on_the_packet_only_through_its_residual():
    """The invariant ``Columns`` keep, on a loop that writes a wildcard field."""
    step = s.ite(s.test("f", 0), s.assign("f", 1), s.assign("f", 2))
    coin = s.choice((s.assign("g", 1), Fraction(1, 2)), (s.skip(), Fraction(1, 2)))
    loop = s.while_do(s.neg(s.test("f", 2)), s.seq(step, coin))
    backend = MatrixBackend()
    batch = [Packet({"f": 0, "g": 9, "h": 1}), Packet({"f": 1, "g": 9, "h": 1}),
             Packet({"f": 0, "g": 8, "h": 1}), Packet({"f": 0, "g": 1})]
    got = backend.output_distributions(loop, batch)
    oracle = Interpreter(exact=True, compile_bodies=False)
    for packet in batch:
        assert got[packet].close_to(oracle.run_packet(loop, packet), tolerance=1e-12)
    (projection,) = backend.plan(loop).projections
    columns = Columns.classify(batch, projection.plan)
    residuals = [columns.residuals.items[at] for at in columns.residual.tolist()]
    # f ∈ {0, 1, 2} is concrete in every class, g=9 and g=8 are wildcards of
    # g's domain {1}, and h is not a class field at all.
    assert residuals[0] == residuals[1] == (("g", 9), ("h", 1))
    assert residuals[2] == (("g", 8), ("h", 1))
    assert residuals[3] == ()
    # One column per outcome packet: writing g=1 takes g out of the residual,
    # so f=2, g=1 is one column for both h=1 residuals.
    assert got.decoded == len(got.outcomes) == 4
    for packet in batch:
        assert set(got[packet].support()) <= {
            packet.set_many({"f": 2}), packet.set_many({"f": 2, "g": 1})
        }


# ---------------------------------------------------------------------------
# (i') the batched answer == the per-packet path it replaced, and the interpreter
# ---------------------------------------------------------------------------

def assert_rows_are_distributions(answer) -> None:
    """Every row carries mass one, drop included; its lazy ``Dist`` is the row."""
    for index, packet in enumerate(answer.ingresses):
        start, stop = answer.indptr[index], answer.indptr[index + 1]
        masses = answer.data[start:stop].tolist()
        assert float(sum(masses)) == pytest.approx(1, abs=1e-12)
        columns = answer.indices[start:stop].tolist()
        assert dict(answer[packet].items()) == {
            answer.outcomes[column]: mass for column, mass in zip(columns, masses)
        }
        assert answer[packet] is answer[packet]  # built once


def assert_same_answers(answer, reference, packets) -> None:
    for packet in packets:
        got, want = answer[packet], reference[packet]
        assert got.support() == want.support()
        assert got.tv_distance(want) <= 1e-12
        assert got == want


@settings(
    max_examples=examples(120), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(guarded_programs(), st.permutations(BATCH))
def test_the_batched_answer_is_the_per_packet_path_on_residual_batches(policy, batch):
    backend = MatrixBackend()
    answer = backend.output_distributions(policy, batch)
    assert_rows_are_distributions(answer)
    assert_same_answers(answer, per_packet_distributions(MatrixBackend(), policy, batch), batch)
    oracle = Interpreter(exact=True, compile_bodies=False)
    assert_same_answers(answer, {p: oracle.run_packet(policy, p) for p in batch}, batch)


@pytest.mark.parametrize(
    "build", [lambda: fattree_model(4, True), f10_batch_model], ids=["fattree4-failures", "f10_3-k6"]
)
def test_the_batched_answer_is_the_per_packet_path_on_network_models(build):
    model = build()
    packets = model.ingress_packets
    backend = MatrixBackend()
    answer = backend.output_distributions(model.policy, packets)
    assert_rows_are_distributions(answer)
    assert_same_answers(answer, per_packet_distributions(MatrixBackend(), model.policy, packets), packets)
    oracle = Interpreter(exact=True, compile_bodies=False)
    assert_same_answers(answer, {p: oracle.run_packet(model.policy, p) for p in packets}, packets)
    # Delivery is a row reduction; it is the distribution's delivered mass.
    delivered = backend.delivery_probabilities(model)
    for packet in packets:
        want = answer[packet].prob_of(model.is_delivered)
        assert delivered[packet] == pytest.approx(float(want), abs=1e-12)


# ---------------------------------------------------------------------------
# (ii) leaf_of is the linear walk
# ---------------------------------------------------------------------------

def linear_leaf(node: FddNode, packet: Packet) -> Leaf:
    """The descent every evaluator used to spell out: one comparison per test."""
    current = node
    while isinstance(current, Branch):
        current = current.hi if packet.get(current.field) == current.value else current.lo
    return current


FIELDS = ["f", "g", "h"]


@st.composite
def raw_diagrams(draw):
    """Ordered diagrams built node by node — reduced or not.

    ``lo`` children respect the test order, as every FDD operation does;
    a ``hi`` child may test its parent's field *again* (nothing in
    ``FddManager.branch`` forbids it, and unreduced intermediates do).
    """
    manager = FddManager(FIELDS)
    leaves = [manager.from_assign("out", n) for n in range(4)] + [manager.false_leaf]

    def build(rank: int, least: int, depth: int) -> FddNode:
        if depth == 0 or rank == len(FIELDS) or draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(leaves))
        value = draw(st.integers(min_value=least, max_value=least + 2))
        again = draw(st.booleans())
        hi = build(rank if again else rank + 1, 0, depth - 1)
        lo = build(*draw(st.sampled_from([(rank, value + 1), (rank + 1, 0)])), depth - 1)
        return manager.branch(FIELDS[rank], value, hi, lo)

    return build(0, 0, 5)


packets = st.dictionaries(
    st.sampled_from(FIELDS), st.integers(min_value=-1, max_value=7), max_size=3
).map(Packet)


@settings(max_examples=examples(300), deadline=None)
@given(raw_diagrams(), st.lists(packets, min_size=1, max_size=6))
def test_leaf_of_is_the_linear_walk_on_raw_diagrams(node, batch):
    for packet in batch:
        want = linear_leaf(node, packet)
        assert leaf_of(node, packet.get) is want
        assert leaf_of(node, dict(packet.items()).get) is want
        assert evaluate(node, packet) is want.dist


@settings(
    max_examples=examples(100), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(guarded_programs(), st.lists(packets, min_size=1, max_size=4))
def test_leaf_of_is_the_linear_walk_on_compiled_programs(policy, batch):
    compiler = Compiler(FddManager(), exact=True)
    for node in (compiler.compile(policy), compiler.compile_unreduced(policy)):
        for packet in batch + BATCH:
            assert leaf_of(node, packet.get) is linear_leaf(node, packet)


# ---------------------------------------------------------------------------
# (iii) counts: packets built, lookups made
# ---------------------------------------------------------------------------

def test_a_loop_stage_builds_one_packet_per_class_and_residual():
    model = f10_batch_model()
    backend = MatrixBackend()
    first = backend.output_distributions(model.policy, model.ingress_packets)
    plan = backend.plan(model.policy)
    (stage,) = plan.loop_stages
    # Every ingress of a network model leaves the same residual: here none,
    # as the plan's layout codes every value of an ingress packet.
    columns = Columns.classify(model.ingress_packets, plan.projections[0].plan)
    assert columns.residuals.items == [()] and not columns.residual.any()
    # One row per class the head stage handed the loop, taken once.
    rows = len(stage.rows)
    assert 0 < rows <= len(model.ingress_packets) == 51
    outcomes, probs = stage.rows.outcomes, stage.rows.probs
    # A second batch replays the class rows: nothing is taken again, and
    # packets are decoded once per outcome column, after the last stage.
    again = backend.output_distributions(model.policy, model.ingress_packets)
    assert len(stage.rows) == rows
    assert stage.rows.outcomes is outcomes and stage.rows.probs is probs
    assert again.decoded == first.decoded == len(first.outcomes)


def through_the_loop(model) -> s.Policy:
    """``model``'s policy up to and including its loop (the loop stage is last)."""
    parts = model.policy.parts
    last = max(i for i, part in enumerate(parts) if isinstance(part, s.WhileDo))
    return s.seq(*parts[: last + 1])


def test_a_stage_decodes_each_outcome_column_once():
    model = f10_batch_model()
    answer = MatrixBackend().output_distributions(through_the_loop(model), model.ingress_packets)
    columns = [outcome for outcome in answer.outcomes if outcome is not DROP]
    # 51 ingresses reach 12 (class, residual) outcomes over 558 row entries:
    # the last stage's outcomes are decoded once each, not once per ingress
    # or entry.
    assert answer.decoded == len(columns) == 12
    assert answer.indptr[-1] == 558
    # Decoded only after the last stage: the tail's resets send all 12 to
    # one packet, and that one column is the only one decoded.
    whole = MatrixBackend().output_distributions(model.policy, model.ingress_packets)
    assert whole.decoded == len(whole.outcomes) == 1


def test_one_ingress_per_call_walks_no_more_loop_free_diagrams_than_one_call():
    model = f10_batch_model()
    whole, fed = MatrixBackend(), MatrixBackend()
    whole.output_distributions(model.policy, model.ingress_packets)
    for packet in model.ingress_packets:
        fed.output_distributions(model.policy, [packet])
    walks = whole.solver_stats()["loop_free_walks"]
    # The head's 51 ingress classes and the tail's two.
    assert fed.solver_stats()["loop_free_walks"] == walks == 53
    # Asked again, a loop-free stage walks nothing; a reset drops its rows,
    # so the next call walks every class again (the counter keeps counting).
    whole.output_distributions(model.policy, model.ingress_packets)
    assert whole.solver_stats()["loop_free_walks"] == walks
    whole.reset_solutions()
    whole.output_distributions(model.policy, model.ingress_packets)
    assert whole.solver_stats()["loop_free_walks"] == 2 * walks


def test_a_reset_keeps_prepared_leaves_and_nothing_per_packet():
    model = f10_batch_model()
    backend = MatrixBackend()
    backend.output_distributions(model.policy, model.ingress_packets)
    plan = backend.plan(model.policy)
    before, projections = list(plan.stages), plan.projections
    backend.reset_solutions()
    after = backend.plan(model.policy).stages
    assert [type(stage) for stage in after] == [type(stage) for stage in before]
    # The code-translation arrays, built once per plan, are kept.
    assert plan.projections is projections
    for old, new in zip(before, after):
        assert new is not old and len(old.rows)
        assert not len(new.rows)
        old_flats, new_flats = (
            (stage.chain.flat, stage.guard) if isinstance(stage, _LoopStage) else (stage.flat,)
            for stage in (old, new)
        )
        # The diagrams, flattened once per plan, handed on as they are.
        assert all(mine is theirs for mine, theirs in zip(new_flats, old_flats))
        assert all(flat.leaves for flat in old_flats)
    for stage in after:
        if isinstance(stage, _LoopStage):
            assert len(stage.chain) == 1 and not stage.solver.solved_states


def test_a_descent_costs_lookups_per_field_not_per_switch():
    topology = fat_tree(16)
    model = build_model(topology, routing=ecmp_policy(topology, 1), dest=1)
    backend = MatrixBackend()
    # The head stage: the ingress predicate (the hop runs in the loop stage).
    head = backend.plan(model.policy).stages[0].fdd
    switches = len({node.value for node in _branches(head) if node.field == "sw"})
    assert switches == 127  # every edge switch but the destination's
    for packet in (model.ingress_packets[0], model.ingress_packets[-1], Packet({"sw": 10**6})):
        asked = []

        def lookup(field, packet=packet):
            asked.append(field)
            return packet.get(field)

        assert leaf_of(head, lookup) is linear_leaf(head, packet)
        assert len(asked) <= len(backend.manager.fields) < switches


def _branches(node: FddNode):
    return (current for current in iter_nodes(node) if isinstance(current, Branch))


# ---------------------------------------------------------------------------
# (iv) the index-array solver == the dict-based one
# ---------------------------------------------------------------------------

def assert_same_as_reference(transient, absorbing, transitions) -> None:
    system = solve_absorption_batched(transient, absorbing, transitions)
    live, doomed, want = solve_absorption_reference(transient, absorbing, transitions)
    assert system.transient == live and system.doomed == doomed
    got = system.result()
    assert list(got) == list(want) and got.lost_mass.keys() == want.lost_mass.keys()
    for state, row in want.items():
        assert list(got[state]) == list(row)  # same support, in the absorbing order
        for target, mass in row.items():
            assert got[state][target] == pytest.approx(mass, abs=1e-12)
        assert got.lost_mass[state] == pytest.approx(want.lost_mass[state], abs=1e-12)
        share = sum(transitions.get(state, {}).values())
        if share == 1:  # a stochastic row accounts for all of its mass
            assert sum(got[state].values()) + got.lost_mass[state] == pytest.approx(1, abs=1e-9)


@settings(
    max_examples=examples(300), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(sparse_chains())
def test_solver_equals_the_dict_based_reference_on_random_sparse_chains(chain):
    transient, transitions, _stochastic = chain
    assert_same_as_reference(transient, ABSORBING, transitions)


@pytest.mark.parametrize("name", SHAPES)
def test_solver_equals_the_dict_based_reference_on_named_shapes(name):
    transitions = SHAPES[name]
    mentioned = set(transitions).union(*transitions.values())
    transient = sorted(state for state in mentioned if isinstance(state, int))
    assert_same_as_reference(transient, ABSORBING, transitions)
    assert_same_as_reference(transient[::-1], ABSORBING[::-1], transitions)


def test_an_unknown_successor_is_rejected_only_where_it_can_be_reached():
    half = Fraction(1, 2)
    with pytest.raises(KeyError, match="mystery"):
        solve_absorption_batched([0], ["a"], {0: {"a": half, "mystery": half}})
    # A zero-probability edge is no edge, and a doomed state's row is never read.
    for transitions in ({0: {"a": 1, "mystery": 0}}, {0: {"a": half, 1: half}, 1: {"mystery": 1}}):
        transient = sorted(transitions)
        assert_same_as_reference(transient, ["a"], transitions)
    system = solve_absorption_batched([0, 1], ["a"], {0: {"a": half, 1: half}, 1: {"mystery": 1}})
    assert system.transient == [0] and system.doomed == [1]
    assert system.result().lost_mass == {0: 0.5, 1: 1.0}


def test_no_transient_state_and_no_absorbing_state():
    assert solve_absorption_batched([], ["a"], {}).result() == {}
    system = solve_absorption_batched([0, 1], [], {0: {1: 1}, 1: {0: 1}})
    assert system.transient == [] and system.doomed == [0, 1]
    assert system.result().lost_mass == {0: 1.0, 1: 1.0}
