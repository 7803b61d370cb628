"""The one indexed chain of a loop stage: conservation at its seams, and growth.

A loop stage explores its chain once (``ClassChain``: the class -> int
index and the rows over it), hands the appended rows to the solver by
index (``IncrementalAbsorptionSolver.grow``) and decodes a solved row
when a query enters through its class.  Held here, without a clock:

* mass is conserved where one layer hands to the next — the index-array
  kernel against the dict-based reference on generated chains; matrix
  rows, solved rows and answers on generated network programs under a
  hop loop, however the ingress set is fed;
* the chain only ever appends — a class is expanded, counted and
  factorized once however the seeds arrive, a solved space costs nothing
  to ask again, and a reset really drops the chain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import MatrixBackend
from repro.core import syntax as s
from repro.core.fdd.matrix import fdd_to_matrix
from repro.core.markov import IncrementalAbsorptionSolver

from oracles import solve_absorption_reference
from test_compile_per_switch import NET_INGRESS, NET_SWITCHES, f10_batch_model, network_programs
from test_exact_solver import ABSORBING, sparse_chains
from test_interpreter_stages import whole_model
from test_properties import examples


# ---------------------------------------------------------------------------
# conservation at the seams
# ---------------------------------------------------------------------------

@settings(
    max_examples=examples(300), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(sparse_chains())
def test_the_index_array_kernel_equals_the_dict_based_reference(chain):
    transient, transitions, _stochastic = chain
    # The caller's index: transient states are their own numbers, the
    # absorbing ones follow.
    index = {state: len(transient) + j for j, state in enumerate(ABSORBING)}
    index.update((state, state) for state in transient)
    indptr, successors, probabilities = [0], [], []
    for state in transient:
        for successor, probability in transitions[state].items():
            successors.append(index[successor])
            probabilities.append(float(probability))
        indptr.append(len(successors))
    solver = IncrementalAbsorptionSolver()
    solver.grow(
        np.array(transient, dtype=np.int64),
        np.array(indptr, dtype=np.int64),
        np.array(successors, dtype=np.int64),
        np.array(probabilities, dtype=np.float64),
    )
    live, doomed, want = solve_absorption_reference(transient, ABSORBING, transitions)
    assert solver.system.transient == live and solver.system.doomed == doomed
    assert (solver.factorizations, solver.schur_updates) == (1, 0)
    for state in transient:
        outcomes, masses, lost = solver.absorbed(state)
        got = {ABSORBING[j - len(transient)]: mass for j, mass in zip(outcomes, masses)}
        assert got.keys() == want[state].keys()
        for target, mass in want[state].items():
            assert got[target] == pytest.approx(mass, abs=1e-9)
        assert lost == pytest.approx(want.lost_mass[state], abs=1e-9)
        assert sum(masses) + lost == pytest.approx(1, abs=1e-12)


DESTINATION = 3


def hop_loop(parts) -> s.Policy:
    """A generated network program, run hop by hop until the packet is at its destination."""
    return s.while_do(s.neg(s.test("sw", DESTINATION)), s.seq(*parts))


def total_variation(left, right) -> float:
    """Between two answers with the same support (drop included)."""
    assert left.support() == right.support()
    return left.tv_distance(right)


@settings(
    max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(network_programs(), st.data())
def test_mass_is_conserved_through_a_hop_loop_however_it_is_fed(parts, data):
    policy = hop_loop(parts)
    backend = MatrixBackend()
    whole = backend.output_distributions(policy, NET_INGRESS)
    (stage,) = backend.plan(policy).loop_stages
    # Assembly: every row sums to one, the drop column included.
    if stage.matrix is not None:
        assert stage.matrix.is_stochastic(tolerance=1e-12)
    # Solve: absorbed + lost is one for every class on the chain the loop runs on ...
    for state in np.flatnonzero(stage.chain.transient).tolist():
        _outcomes, masses, lost = stage.solver.absorbed(state)
        assert sum(masses) + lost == pytest.approx(1, abs=1e-12)
    # ... and decode: delivered + dropped (the lost mass is in it) is one per ingress.
    for packet in NET_INGRESS:
        assert sum(mass for _, mass in whole[packet].items()) == pytest.approx(1, abs=1e-12)
    # Growth: any partition of the ingress set, in any order, is one call.
    order = data.draw(st.permutations(NET_INGRESS), label="order")
    cuts = data.draw(
        st.lists(st.integers(min_value=1, max_value=len(order) - 1), unique=True, max_size=6),
        label="cuts",
    )
    grown, fed = MatrixBackend(), {}
    for start, stop in zip([0, *sorted(cuts)], [*sorted(cuts), len(order)]):
        fed.update(grown.output_distributions(policy, order[start:stop]))
    for packet in NET_INGRESS:
        assert total_variation(fed[packet], whole[packet]) <= 1e-12


@settings(
    max_examples=examples(40), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    network_programs(),
    network_programs(),
    st.sampled_from(NET_SWITCHES),
    st.sampled_from(NET_SWITCHES),
)
def test_mass_is_conserved_after_every_stage_of_a_two_loop_plan(parts, other, first, second):
    """``lead ; hop ; while ¬(sw=first) do hop ; pt<-0 ; while ¬(sw=second) do hop'``."""
    start = next(i for i, part in enumerate(other) if isinstance(part, s.Case))
    policy = s.seq(
        whole_model(parts, first),
        s.while_do(s.neg(s.test("sw", second)), s.Seq(tuple(other[start:]))),
    )
    backend = MatrixBackend()
    plan = backend.plan(policy)
    assert len(plan.loop_stages) == 2
    answers = list(backend._stagewise(plan, NET_INGRESS))
    assert len(answers) == len(plan.stages) + 1
    for answer in answers:
        bounds = answer.indptr.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            assert float(sum(answer.data[start:stop].tolist())) == pytest.approx(1, abs=1e-12)
    assert answers[-1] == backend.output_distributions(policy, NET_INGRESS)
    # A loop stage's chain was explored by frontier steps, and only by them.
    for stage in plan.loop_stages:
        assert (len(stage.chain) > 1) == (stage.chain.frontier_steps > 0)


# ---------------------------------------------------------------------------
# growth of the appended chain
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model():
    return f10_batch_model()


def feed(backend, model, per_call: int) -> dict:
    packets, answers = model.ingress_packets, {}
    for start in range(0, len(packets), per_call):
        answers.update(backend.output_distributions(model.policy, packets[start:start + per_call]))
    return answers


@pytest.mark.parametrize("per_call", [1, 4, 16, 51])
def test_a_class_is_assembled_once_however_the_seeds_arrive(model, per_call):
    backend = MatrixBackend()
    answers = feed(backend, model, per_call)
    (stage,) = backend.plan(model.policy).loop_stages
    # 306 classes the hop reaches, and the 51 ingress classes: the loop
    # stage is a do-while, so an ingress enters the chain itself.
    assert backend.solver_stats()["assembly_rows"] == len(stage.matrix.classes) == 357
    whole = MatrixBackend().output_distributions(model.policy, model.ingress_packets)
    for packet in model.ingress_packets:
        assert total_variation(answers[packet], whole[packet]) <= 1e-12


def test_the_appended_chain_is_the_one_shot_chain_up_to_the_order_of_classes(model):
    backend = MatrixBackend()
    feed(backend, model, 4)
    (stage,) = backend.plan(model.policy).loop_stages
    grown = stage.matrix
    one_shot = fdd_to_matrix(
        stage.body_fdd,
        extra_values=stage.domains,
        seeds=stage.seed_order,
        absorbing_when=lambda cls: not stage.guard_holds(cls),
    )
    assert grown.classes != one_shot.classes  # discovered in another order
    assert set(grown.classes) == set(one_shot.classes)
    assert grown.domains == one_shot.domains and grown.matrix.nnz == one_shot.matrix.nnz
    for cls in one_shot.classes:  # drop column included
        assert list(grown.row(cls).items()) == list(one_shot.row(cls).items())


def test_a_solved_space_costs_nothing_and_a_reset_costs_everything_again(model):
    backend = MatrixBackend()
    first = backend.output_distributions(model.policy, model.ingress_packets)
    stats = backend.solver_stats()
    assert (stats["assembly_rows"], stats["factorizations"], stats["schur_updates"]) == (357, 1, 0)
    assert stats["frontier_steps"] == 5  # the chain's BFS depth: 51/51/48/117/90 classes
    # Asked again: no class is explored, nothing is factorized.
    again = backend.output_distributions(model.policy, model.ingress_packets[::-1])
    assert backend.solver_stats() == stats
    assert all(again[packet] == first[packet] for packet in model.ingress_packets)
    # The reset drops the chain: the same batch pays the full amount again.
    backend.reset_solutions()
    assert backend.solver_stats()["factorizations"] == 0
    (stage,) = backend.plan(model.policy).loop_stages
    assert stage.matrix is None and not len(stage.rows) and not stage.solver.solved_states
    assert backend.output_distributions(model.policy, model.ingress_packets) == first
    stats = backend.solver_stats()
    assert (stats["assembly_rows"], stats["factorizations"], stats["frontier_steps"]) == (714, 1, 5)


def test_a_stage_rebuilt_from_specs_answers_like_the_planners(model):
    planner = MatrixBackend()
    want = planner.output_distributions(model.policy, model.ingress_packets)
    # A fresh replica, rebuilt the way workers rebuild: from shipped specs.
    adopted = MatrixBackend()
    adopted.adopt_plan("shipped", *planner.plan_payload(model.policy))
    assert adopted.query_plan("shipped", model.ingress_packets) == want
    assert adopted.ast_compilations == 0
