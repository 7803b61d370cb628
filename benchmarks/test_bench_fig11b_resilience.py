"""Figure 11(b) — k-resilience of the F10 schemes on an AB FatTree.

Regenerates the paper's resilience table: ``F10_0`` is 0-resilient,
``F10_3`` is 2-resilient, and ``F10_3,5`` is 3-resilient; none of them is
resilient to unbounded failures.  The benchmark times the full table
computation (structural certainty analysis for every scheme and bound).

A second, untimed pass counts the work: ``certainty_body_evals`` is how
often the possibility analysis evaluates a loop body on a loop-head state
over the whole table.  The interpreter memoises that per state, so the
count is the number of distinct reachable loop-head states summed over the
18 cells — a count that repeats exactly, gated lower-is-better in CI
(``baselines/BENCH_fig11.baseline.json``).  Re-walking shared states once
per ingress, as the analysis used to, makes it several times larger.
"""

from __future__ import annotations

from repro.analysis.resilience import resilience_table
from repro.core.interpreter import Interpreter
from repro.routing import f10_model
from repro.topology import ab_fat_tree

from bench_utils import print_table, record

SCHEMES = ["f10_0", "f10_3", "f10_3_5"]
BOUNDS = [0, 1, 2, 3, 4, None]

#: The table published in the paper (✓ = equivalent to teleport).
EXPECTED = {
    "f10_0": {0: True, 1: False, 2: False, 3: False, 4: False, None: False},
    "f10_3": {0: True, 1: True, 2: True, 3: False, 4: False, None: False},
    "f10_3_5": {0: True, 1: True, 2: True, 3: True, 4: False, None: False},
}


def compute_table(built=None):
    topo = ab_fat_tree(4)

    def factory(scheme, k):
        model = f10_model(topo, 1, scheme=scheme, failure_probability=1 / 4, max_failures=k)
        if built is not None:
            built.append(model)
        return model

    return resilience_table(factory, SCHEMES, BOUNDS)


TITLE = "Figure 11(b) — k-resilience (≡ teleport under at most k failures)"


def rows_of(table):
    return [
        ["∞" if bound is None else bound]
        + ["✓" if table[scheme][bound] else "✗" for scheme in SCHEMES]
        for bound in BOUNDS
    ]


def test_figure11b_resilience_table(benchmark):
    table = benchmark.pedantic(compute_table, rounds=1, iterations=1)
    print_table(TITLE, ["k"] + SCHEMES, rows_of(table), fig="fig11b")
    assert table == EXPECTED


def test_figure11b_body_evaluations(monkeypatch):
    """Count loop-body possibility evaluations over the table (untimed)."""
    built, evaluated = [], []
    certain_outcomes = Interpreter.certain_outcomes

    def counting(self, policy, packet):
        if built and policy is built[-1].body:
            evaluated.append(packet)
        return certain_outcomes(self, policy, packet)

    monkeypatch.setattr(Interpreter, "certain_outcomes", counting)
    table = compute_table(built)
    assert table == EXPECTED
    ingresses = sum(len(model.ingress_packets) for model in built)
    print(f"\n{len(evaluated)} loop-body evaluations, {len(built)} cells, {ingresses} ingresses")
    record(
        "fig11b",
        TITLE,
        ["k"] + SCHEMES,
        rows_of(table),
        metrics={"certainty_body_evals": len(evaluated)},
    )
