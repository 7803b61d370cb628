"""Tests for the absorbing Markov chain solvers."""

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.markov import solve_absorption_batched, solve_absorption_exact

from oracles import reachable_states, solve_absorption_reference
from test_properties import examples


def float_rows(transient, absorbing, transitions):
    """The float solver's answer in dict-of-rows form."""
    return solve_absorption_batched(transient, absorbing, transitions).result()


def reference_rows(transient, absorbing, transitions):
    """The dict-based construction the float solver replaced (an oracle)."""
    return solve_absorption_reference(transient, absorbing, transitions)[2]


class TestFloatSolver:
    def test_simple_two_state_chain(self):
        # t -> a with probability 1.
        result = float_rows(["t"], ["a"], {"t": {"a": 1.0}})
        assert result["t"]["a"] == pytest.approx(1.0)
        assert result.lost_mass["t"] == 0.0

    def test_geometric_escape(self):
        # t loops with prob 1/2 and escapes with prob 1/2: absorbed w.p. 1.
        result = float_rows(["t"], ["a"], {"t": {"t": 0.5, "a": 0.5}})
        assert result["t"]["a"] == pytest.approx(1.0)

    def test_split_absorption(self):
        result = float_rows(
            ["t"], ["a", "b"], {"t": {"t": 0.5, "a": 0.25, "b": 0.25}}
        )
        assert result["t"]["a"] == pytest.approx(0.5)
        assert result["t"]["b"] == pytest.approx(0.5)

    def test_substochastic_rows_report_lost_mass(self):
        result = float_rows(["t"], ["a"], {"t": {"a": 0.25, "t": 0.25}})
        assert result["t"]["a"] == pytest.approx(1 / 3)
        assert result.lost_mass["t"] == pytest.approx(2 / 3)

    def test_chain_of_transient_states(self):
        transitions = {"t1": {"t2": 1.0}, "t2": {"t3": 1.0}, "t3": {"a": 1.0}}
        result = float_rows(["t1", "t2", "t3"], ["a"], transitions)
        assert result["t1"]["a"] == pytest.approx(1.0)

    def test_unknown_successor_rejected(self):
        with pytest.raises(KeyError):
            float_rows(["t"], ["a"], {"t": {"a": 0.5, "mystery": 0.5}})

    def test_empty_transient_set(self):
        assert float_rows([], ["a"], {}) == {}


class TestExactSolver:
    def test_exact_geometric(self):
        result = solve_absorption_exact(
            ["t"], ["a"], {"t": {"t": Fraction(1, 2), "a": Fraction(1, 2)}}
        )
        assert result["t"]["a"] == Fraction(1)

    def test_exact_split(self):
        result = solve_absorption_exact(
            ["t"],
            ["a", "b"],
            {"t": {"t": Fraction(1, 3), "a": Fraction(1, 3), "b": Fraction(1, 3)}},
        )
        assert result["t"]["a"] == Fraction(1, 2)
        assert result["t"]["b"] == Fraction(1, 2)

    def test_exact_lost_mass(self):
        result = solve_absorption_exact(
            ["t"], ["a"], {"t": {"a": Fraction(1, 4), "t": Fraction(1, 4)}}
        )
        assert result.lost_mass["t"] == Fraction(2, 3)

    def test_doomed_states_lose_all_mass(self):
        # A transient state that can never reach an absorbing state is not
        # an error: all of its mass is reported as lost.
        result = solve_absorption_exact(["t"], ["a"], {"t": {"t": Fraction(1)}})
        assert result["t"] == {}
        assert result.lost_mass["t"] == 1

    def test_doomed_states_lose_all_mass_float(self):
        result = float_rows(
            ["t", "u"], ["a"], {"t": {"u": 0.5, "a": 0.5}, "u": {"u": 1.0}}
        )
        assert result["t"]["a"] == pytest.approx(0.5)
        assert result.lost_mass["t"] == pytest.approx(0.5)
        assert result.lost_mass["u"] == pytest.approx(1.0)

    def test_agrees_with_float_solver(self):
        transitions = {
            "x": {"x": Fraction(1, 4), "y": Fraction(1, 4), "a": Fraction(1, 2)},
            "y": {"x": Fraction(1, 2), "b": Fraction(1, 2)},
        }
        exact = solve_absorption_exact(["x", "y"], ["a", "b"], transitions)
        approx = float_rows(["x", "y"], ["a", "b"], transitions)
        for state in ("x", "y"):
            for target in ("a", "b"):
                assert float(exact[state].get(target, 0)) == pytest.approx(
                    approx[state].get(target, 0.0), abs=1e-12
                )


class TestReachability:
    def test_reachable_states_discovery_order(self):
        graph = {1: [2, 3], 2: [4], 3: [], 4: []}
        assert reachable_states([1], lambda n: graph[n]) == [1, 2, 3, 4]

    def test_reachable_states_handles_cycles(self):
        graph = {1: [2], 2: [1]}
        assert set(reachable_states([1], lambda n: graph[n])) == {1, 2}


@given(
    loop=st.fractions(min_value=0, max_value=Fraction(9, 10)),
    split=st.fractions(min_value=0, max_value=1),
)
def test_absorption_probabilities_sum_to_one(loop, split):
    """A proper absorbing chain loses no mass and splits it among targets."""
    escape = 1 - loop
    transitions = {"t": {"t": loop, "a": escape * split, "b": escape * (1 - split)}}
    result = solve_absorption_exact(["t"], ["a", "b"], transitions)
    total = sum(result["t"].values(), Fraction(0))
    assert total == 1
    assert result.lost_mass["t"] == 0


class TestIncrementalAbsorptionSolver:
    def chain(self, n: int):
        """A 1-D random walk 0..n-1 absorbed at "win" (from n-1) or looping."""
        transitions = {}
        for i in range(n):
            up = "win" if i == n - 1 else i + 1
            transitions[i] = {up: Fraction(1, 2), i: Fraction(1, 2)}
        return transitions

    def test_single_solve_matches_batch_solver(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        transitions = self.chain(4)
        solver = IncrementalAbsorptionSolver()
        result = solver.solve(list(range(4)), transitions)
        reference = reference_rows(list(range(4)), ["win"], transitions)
        for state in range(4):
            assert result[state]["win"] == pytest.approx(reference[state]["win"], abs=1e-12)
        assert solver.factorizations == 1

    def test_growth_composes_through_gateways(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        transitions = self.chain(6)
        solver = IncrementalAbsorptionSolver()
        solver.solve([3, 4, 5], transitions)          # upper half first
        assert solver.factorizations == 1
        result = solver.solve(list(range(6)), transitions)  # grow downwards
        assert solver.factorizations == 2
        reference = reference_rows(list(range(6)), ["win"], transitions)
        for state in range(6):
            assert result[state]["win"] == pytest.approx(reference[state]["win"], abs=1e-12)
        # No growth: answered from the cache, no further factorization.
        solver.solve(list(range(6)), transitions)
        assert solver.factorizations == 2
        assert not solver.needs_solve(list(range(6)))

    def test_exact_growth(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        transitions = self.chain(4)
        solver = IncrementalAbsorptionSolver(exact=True)
        solver.solve([2, 3], transitions)
        result = solver.solve([0, 1, 2, 3], transitions)
        assert solver.factorizations == 2
        for state in range(4):
            assert result[state]["win"] == 1

    def test_lost_mass_composes_through_gateways(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        # 1 -> 2 (solved first, diverges); 0 -> 1 or "out".
        transitions = {
            2: {2: Fraction(1)},
            1: {2: Fraction(1)},
            0: {1: Fraction(1, 2), "out": Fraction(1, 2)},
        }
        solver = IncrementalAbsorptionSolver(exact=True)
        first = solver.solve([1, 2], transitions)
        assert first.lost_mass[1] == 1
        result = solver.solve([0, 1, 2], transitions)
        assert result[0]["out"] == Fraction(1, 2)
        assert result.lost_mass[0] == Fraction(1, 2)

    def test_no_arrays_before_the_first_float_step(self, monkeypatch):
        import numpy as np

        from repro.core.markov import IncrementalAbsorptionSolver

        # With numpy and SciPy unimportable, an exact solver still solves ...
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setitem(sys.modules, "scipy", None)
        exact = IncrementalAbsorptionSolver(exact=True)
        assert exact.solve([0, 1], self.chain(2))[0] == {"win": 1}
        assert exact.solved_states == {0, 1}
        # ... and a float solver holds nothing until its first grow.
        fresh = IncrementalAbsorptionSolver()
        assert fresh.solved_states == frozenset()
        with pytest.raises(KeyError):
            fresh.absorbed_many([0])
        monkeypatch.undo()
        fresh.grow(np.array([0]), np.array([0, 1]), np.array([1]), np.array([1.0]))
        assert fresh.solved_states == {0}
        assert fresh.absorbed_many([0]) == [([1], [1.0], 0.0)]


class TestSchurGrowthUpdates:
    """Growth steps: one code path, counted by ``(factorizations, schur_updates)``."""

    chain = TestIncrementalAbsorptionSolver.chain

    def test_small_growth_factorizes_only_the_new_states(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        transitions = self.chain(40)
        solver = IncrementalAbsorptionSolver()
        solver.solve(list(range(8, 40)), transitions)  # 32 states solved
        assert (solver.factorizations, solver.schur_updates) == (1, 0)
        # Growing by 8 factorizes the 8 new states only, and counts as a
        # step that grew an already-solved chain.
        result = solver.solve(list(range(40)), transitions)
        assert (solver.factorizations, solver.schur_updates) == (2, 1)
        assert len(solver.system.transient) == 8
        reference = reference_rows(list(range(40)), ["win"], transitions)
        for state in range(40):
            assert result[state]["win"] == pytest.approx(
                reference[state]["win"], abs=1e-9
            )

    def test_second_solve_over_a_solved_space_moves_neither_counter(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        transitions = self.chain(12)
        solver = IncrementalAbsorptionSolver()
        solver.solve(list(range(4, 12)), transitions)
        first = solver.solve(list(range(12)), transitions)
        counters = (solver.factorizations, solver.schur_updates)
        system = solver.system
        # No linear algebra on a cache hit: same rows, same counters.
        again = solver.solve(list(range(12)), {})
        assert (solver.factorizations, solver.schur_updates) == counters == (2, 1)
        assert solver.system is system
        assert all(again[state] is first[state] for state in range(12))

    @pytest.mark.parametrize("solved_first", [4, 29])
    def test_large_and_small_steps_take_the_same_path(self, solved_first):
        from repro.core.markov import IncrementalAbsorptionSolver

        # 26 new states on 4 solved, or 1 new on 29: no size picks a
        # different routine, so the counters read alike.
        transitions = self.chain(30)
        solver = IncrementalAbsorptionSolver()
        solver.solve(list(range(30 - solved_first, 30)), transitions)
        result = solver.solve(list(range(30)), transitions)
        assert (solver.factorizations, solver.schur_updates) == (2, 1)
        assert len(solver.system.transient) == 30 - solved_first
        reference = reference_rows(list(range(30)), ["win"], transitions)
        for state in range(30):
            assert result[state]["win"] == pytest.approx(
                reference[state]["win"], abs=1e-9
            )

    def test_schur_lost_mass_through_diverging_gateway(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        # Gateway 1 diverges into 2; new state 0 splits between it and "out".
        transitions = {
            2: {2: 1.0},
            1: {2: 1.0},
            0: {1: 0.5, "out": 0.5},
        }
        solver = IncrementalAbsorptionSolver()
        first = solver.solve([1, 2], transitions)
        assert first.lost_mass[1] == pytest.approx(1.0)
        result = solver.solve([0, 1, 2], transitions)
        assert (solver.factorizations, solver.schur_updates) == (2, 1)
        assert result[0]["out"] == pytest.approx(0.5)
        assert result.lost_mass[0] == pytest.approx(0.5)

    def test_schur_doomed_new_state(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        transitions = self.chain(20)
        transitions["stuck"] = {"stuck": Fraction(1)}
        solver = IncrementalAbsorptionSolver()
        solver.solve(list(range(20)), transitions)
        result = solver.solve(list(range(20)) + ["stuck"], transitions)
        assert (solver.factorizations, solver.schur_updates) == (2, 1)
        assert result["stuck"] == {}
        assert result.lost_mass["stuck"] == pytest.approx(1.0)

    def test_growth_preserves_solved_rows(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        transitions = self.chain(40)
        solver = IncrementalAbsorptionSolver()
        solver.solve(list(range(8, 40)), transitions)
        before = {state: solver.solution(state) for state in range(8, 40)}
        solver.solve(list(range(40)), transitions)
        assert solver.schur_updates == 1
        for state, row in before.items():
            assert solver.solution(state) is row

    def test_row_sum_above_one_warns(self):
        from repro.core.markov import IncrementalAbsorptionSolver

        # Detection, not repair: a row that absorbs more than its mass is
        # reported and clipped, a negative one is an error.
        solver = IncrementalAbsorptionSolver()
        with pytest.warns(RuntimeWarning, match="more than one"):
            result = solver.solve([0], {0: {"a": 0.75, "b": 0.75}})
        assert result[0] == {"a": 0.75, "b": 0.75}
        with pytest.raises(ArithmeticError, match="negative absorption"):
            IncrementalAbsorptionSolver().solve([0], {0: {"a": -0.5}})


@given(data=st.data())
@settings(max_examples=examples(80), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_incremental_growth_matches_from_scratch(data):
    """Randomized growth schedules ≡ a from-scratch batched solve (≤1e-9).

    Chains include sub-stochastic rows (lost mass) and states that cannot
    reach absorption (doomed); a drawn prefix makes the first gateways
    sub-stochastic, so lost mass is composed through two growth steps.
    """
    from repro.core.markov import IncrementalAbsorptionSolver

    n = data.draw(st.integers(min_value=4, max_value=18), label="states")
    targets = ["a", "b"]
    transitions = {}
    for i in range(n):
        # Later states may reference earlier ones (the growth contract:
        # exploration closes forward reachability, so solved states never
        # point at states added later).
        choices = list(range(i + 1)) + targets
        successors = data.draw(
            st.lists(st.sampled_from(choices), min_size=1, max_size=3),
            label=f"succ[{i}]",
        )
        weights = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=4),
                min_size=len(successors),
                max_size=len(successors),
            ),
            label=f"weights[{i}]",
        )
        denominator = max(
            sum(weights), data.draw(st.integers(min_value=1, max_value=12))
        )
        row: dict = {}
        for successor, weight in zip(successors, weights):
            row[successor] = row.get(successor, 0.0) + weight / denominator
        transitions[i] = row
    solver = IncrementalAbsorptionSolver()
    cursor = 0
    leak = data.draw(st.sampled_from([0.0, 0.25, 1.0]), label="gateway leak")
    if leak:
        # 0 loses ``leak`` of its mass, 1 inherits that through gateway 0,
        # 2 inherits half of it through gateway 1: one state per step.
        transitions[0] = {"a": 1.0 - leak}
        transitions[1] = {0: 1.0}
        transitions[2] = {1: 0.5, "b": 0.5}
        for cursor in (1, 2, 3):
            solver.solve(list(range(cursor)), transitions)
        assert solver.lost_mass(2) == pytest.approx(leak / 2, abs=1e-12)
    while cursor < n:
        step = data.draw(st.integers(min_value=1, max_value=n - cursor))
        cursor += step
        solver.solve(list(range(cursor)), transitions)
    result = solver.solve(list(range(n)), transitions)
    reference = reference_rows(list(range(n)), targets, transitions)
    for state in range(n):
        for target in targets:
            assert result[state].get(target, 0.0) == pytest.approx(
                reference[state].get(target, 0.0), abs=1e-9
            )
        assert result.lost_mass[state] == pytest.approx(
            reference.lost_mass[state], abs=1e-9
        )
