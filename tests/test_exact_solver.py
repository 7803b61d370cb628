"""The SCC-ordered exact absorption solver against a dense oracle.

``solve_absorption_exact`` eliminates in SCC order of the transient graph;
the whole-system Gauss–Jordan it replaced lives on here, as the reference
implementation.  Fractions are canonical, so the two must agree with
``==`` — on every row and on every ``lost_mass`` — not within a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import markov
from repro.core.equivalence import compare
from repro.core.markov import (
    AbsorptionResult,
    _sccs_sinks_first,
    _states_reaching_absorption,
    solve_absorption_batched,
    solve_absorption_exact,
)
from repro.routing import f10_model

from test_properties import examples


def dense_oracle(transient, absorbing, transitions) -> AbsorptionResult:
    """Gauss–Jordan over the whole augmented matrix ``[I - Q | R]``.

    The routine ``core.markov`` shipped before elimination went SCC-ordered,
    kept verbatim apart from its name: cubic in the number of live transient
    states, blind to sparsity, and therefore an independent check.
    """
    transient = list(transient)
    absorbing = list(absorbing)
    if not transient:
        return AbsorptionResult({}, {})
    reaching = _states_reaching_absorption(transient, absorbing, transitions)
    doomed = [state for state in transient if state not in reaching]
    doomed_set = set(doomed)
    transient = [state for state in transient if state in reaching]
    if not transient:
        return AbsorptionResult(
            {state: {} for state in doomed}, {state: Fraction(1) for state in doomed}
        )
    t_index = {state: i for i, state in enumerate(transient)}
    a_index = {state: j for j, state in enumerate(absorbing)}
    nt, na = len(transient), len(absorbing)

    matrix = [[Fraction(0)] * (nt + na) for _ in range(nt)]
    for i in range(nt):
        matrix[i][i] = Fraction(1)
    for state in transient:
        i = t_index[state]
        for succ, prob in transitions.get(state, {}).items():
            p = Fraction(prob)
            if p == 0:
                continue
            if succ in t_index:
                matrix[i][t_index[succ]] -= p
            elif succ in a_index:
                matrix[i][nt + a_index[succ]] += p
            elif succ in doomed_set:
                continue
            else:
                raise KeyError(f"successor {succ!r} is neither transient nor absorbing")

    for col in range(nt):
        pivot_row = next((r for r in range(col, nt) if matrix[r][col] != 0), None)
        if pivot_row is None:
            raise ArithmeticError("I - Q is singular; the chain is not absorbing")
        if pivot_row != col:
            matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        pivot = matrix[col][col]
        if pivot != 1:
            matrix[col] = [entry / pivot for entry in matrix[col]]
        for row in range(nt):
            if row == col or matrix[row][col] == 0:
                continue
            factor = matrix[row][col]
            matrix[row] = [
                entry - factor * matrix[col][k] for k, entry in enumerate(matrix[row])
            ]

    rows, lost = {}, {}
    for state in transient:
        i = t_index[state]
        row = {
            absorbing[j]: matrix[i][nt + j] for j in range(na) if matrix[i][nt + j] != 0
        }
        rows[state] = row
        lost[state] = Fraction(1) - sum(row.values(), Fraction(0))
    for state in doomed:
        rows[state] = {}
        lost[state] = Fraction(1)
    return AbsorptionResult(rows, lost)


def assert_same(result: AbsorptionResult, oracle: AbsorptionResult) -> None:
    assert dict(result) == dict(oracle)
    assert result.lost_mass == oracle.lost_mass
    for state, row in result.items():
        assert sum(row.values(), Fraction(0)) + result.lost_mass[state] == 1


# ---------------------------------------------------------------------------
# random sparse chains
# ---------------------------------------------------------------------------

ABSORBING = ["a", "b", "c"]


@st.composite
def sparse_chains(draw):
    """A sparse chain over states ``0..n-1`` and absorbing ``a``/``b``/``c``.

    The states come in consecutive blocks.  A block may be closed into a
    ring (a self-loop when it has one state), which makes it an SCC; it may
    have a direct exit to an absorbing state, and without one it is doomed
    unless a stray edge leads out.  Up to two stray edges per state go
    anywhere — forwards they chain blocks, backwards they merge them into
    bigger SCCs with cycles inside cycles, and into a doomed block they
    carry mass that is lost.  Weight zero is a zero-probability edge;
    ``slack`` leaves a row sub-stochastic.
    """
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
    n = sum(sizes)
    anywhere = st.one_of(
        st.integers(min_value=0, max_value=n - 1), st.sampled_from(ABSORBING)
    )
    weights: list[dict] = []
    for size in sizes:
        first = len(weights)
        block = [
            draw(st.dictionaries(anywhere, st.integers(min_value=0, max_value=2), max_size=2))
            for _ in range(size)
        ]
        if draw(st.booleans()):
            for offset, row in enumerate(block):
                row[first + (offset + 1) % size] = draw(st.integers(min_value=1, max_value=3))
        if draw(st.sampled_from([True, True, True, False])):
            block[-1][draw(st.sampled_from(ABSORBING))] = 1
        weights.extend(block)
    transitions, stochastic = {}, True
    for state, row in enumerate(weights):
        slack = draw(st.sampled_from([0, 0, 0, 2]))
        total = sum(row.values()) + slack
        stochastic = stochastic and slack == 0 and total > 0
        transitions[state] = {
            succ: Fraction(weight, total or 1) for succ, weight in row.items()
        }
    return list(range(n)), transitions, stochastic


@settings(max_examples=examples(300), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_chains())
def test_equals_dense_oracle_on_random_sparse_chains(chain):
    transient, transitions, stochastic = chain
    result = solve_absorption_exact(transient, ABSORBING, transitions)
    assert_same(result, dense_oracle(transient, ABSORBING, transitions))
    reaching = _states_reaching_absorption(transient, ABSORBING, transitions)
    if stochastic and len(reaching) == len(transient):
        # A proper absorbing chain loses nothing (ROADMAP 4b).
        assert not any(result.lost_mass.values())
    approx = solve_absorption_batched(transient, ABSORBING, transitions).result()
    for state in transient:
        assert float(result.lost_mass[state]) == pytest.approx(
            approx.lost_mass[state], abs=1e-9
        )
        for target in ABSORBING:
            assert float(result[state].get(target, 0)) == pytest.approx(
                approx[state].get(target, 0.0), abs=1e-9
            )


# ---------------------------------------------------------------------------
# the shapes the strategy is meant to hit, one by one
# ---------------------------------------------------------------------------

HALF, THIRD, QUARTER = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)

SHAPES = {
    "acyclic diamond": {
        0: {1: HALF, 2: HALF}, 1: {3: 1}, 2: {3: HALF, "b": HALF}, 3: {"a": 1},
    },
    "self-loop feeding a chain": {0: {0: HALF, 1: HALF}, 1: {"a": THIRD, "b": 2 * THIRD}},
    "two-state cycle": {0: {1: HALF, "a": HALF}, 1: {0: HALF, "b": HALF}},
    "cycles sharing a state (one nested SCC)": {
        0: {1: 1}, 1: {2: HALF, 0: QUARTER, "a": QUARTER},
        2: {1: HALF, 3: HALF}, 3: {2: THIRD, "b": 2 * THIRD},
    },
    "chain of two SCCs": {
        0: {1: 1}, 1: {0: HALF, 2: HALF},
        2: {3: 1}, 3: {2: QUARTER, "a": HALF, "b": QUARTER},
    },
    "doomed state and doomed SCC": {
        0: {1: QUARTER, 2: QUARTER, "a": HALF}, 1: {1: 1}, 2: {3: 1}, 3: {2: 1},
    },
    "sub-stochastic rows": {0: {0: QUARTER, 1: QUARTER}, 1: {"a": HALF}},
    "zero-probability edges": {0: {1: 0, "a": 1}, 1: {"b": 0, 1: 1}},
    "state missing from transitions": {0: {1: HALF, "a": HALF}},
}


@pytest.mark.parametrize("name", SHAPES)
def test_equals_dense_oracle_on_named_shapes(name):
    transitions = SHAPES[name]
    mentioned = set(transitions).union(*transitions.values())
    transient = sorted(state for state in mentioned if isinstance(state, int))
    result = solve_absorption_exact(transient, ABSORBING, transitions)
    assert_same(result, dense_oracle(transient, ABSORBING, transitions))


def test_rows_list_absorbing_states_in_the_callers_order():
    transitions = {0: {1: HALF, "c": HALF}, 1: {"b": HALF, "a": HALF}}
    result = solve_absorption_exact([0, 1], ABSORBING, transitions)
    assert list(result[0]) == ["a", "b", "c"]
    assert list(result) == [0, 1]


def test_mass_flowing_into_doomed_states_is_lost():
    transitions = SHAPES["doomed state and doomed SCC"]
    result = solve_absorption_exact([0, 1, 2, 3], ["a"], transitions)
    assert result[0] == {"a": HALF}
    assert result.lost_mass == {0: HALF, 1: 1, 2: 1, 3: 1}
    assert result[1] == result[2] == result[3] == {}


def test_unknown_successor_still_rejected():
    with pytest.raises(KeyError):
        solve_absorption_exact([0], ["a"], {0: {"a": HALF, "mystery": HALF}})


def test_long_acyclic_chain_needs_no_recursion():
    n = 5_000
    transitions = {i: {i + 1: 1} for i in range(n - 1)}
    transitions[n - 1] = {"a": HALF, "b": HALF}
    result = solve_absorption_exact(range(n), ["a", "b"], transitions)
    assert result[0] == {"a": HALF, "b": HALF}
    assert not any(result.lost_mass.values())


def test_long_cycle_is_one_component():
    n = 3_000
    ring = [{(i + 1) % n: None} for i in range(n)]
    assert sorted(map(len, _sccs_sinks_first(ring))) == [n]


@settings(max_examples=examples(200), deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3),
            min_size=n, max_size=n,
        )
    )
)
def test_components_match_networkx_and_respect_the_order(successors):
    components = _sccs_sinks_first([dict.fromkeys(row) for row in successors])
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(successors)))
    graph.add_edges_from((i, j) for i, row in enumerate(successors) for j in row)
    assert sorted(map(sorted, components)) == sorted(
        map(sorted, nx.strongly_connected_components(graph))
    )
    emitted: set[int] = set()
    for component in components:
        emitted.update(component)
        assert all(j in emitted for i in component for j in successors[i])


def test_components_come_out_sinks_first():
    #   0 -> 1 <-> 2 -> 3 -> 3,   4 -> 0
    edges = [{1: None}, {2: None}, {1: None, 3: None}, {3: None}, {0: None}]
    components = [sorted(c) for c in _sccs_sinks_first(edges)]
    assert components == [[3], [1, 2], [0], [4]]


# ---------------------------------------------------------------------------
# the loops the verdict workload actually solves
# ---------------------------------------------------------------------------

def test_equals_dense_oracle_on_every_loop_solve_of_a_refinement_cell(
    ab_fattree_4, monkeypatch
):
    """fig11c's hardest published cell: F10_3 vs F10_3,5 under 3 failures."""
    solves = []

    def checked(transient, absorbing, transitions):
        result = solve_absorption_exact(transient, absorbing, transitions)
        assert_same(result, dense_oracle(transient, absorbing, transitions))
        solves.append(len(result))
        return result

    monkeypatch.setattr(markov, "solve_absorption_exact", checked)
    left, right = (
        f10_model(
            ab_fattree_4, 1, scheme=scheme,
            failure_probability=QUARTER, max_failures=3,
        )
        for scheme in ("f10_3", "f10_3_5")
    )
    assert compare(left.policy, right.policy, left.ingress_packets, exact=True) == "<"
    assert len(solves) >= 2 and max(solves) > 50
