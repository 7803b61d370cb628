"""Figure 11(b) — k-resilience of the F10 schemes on an AB FatTree.

Regenerates the paper's resilience table: ``F10_0`` is 0-resilient,
``F10_3`` is 2-resilient, and ``F10_3,5`` is 3-resilient; none of them is
resilient to unbounded failures.  ``examples/data_center_resilience.py``
prints the table; its seconds are ``bench/``'s ``f10-verdicts-exact``.

A second pass counts the work: ``certainty_body_evals`` is how often the
possibility analysis evaluates a loop body on a loop-head state over the
whole table.  The interpreter memoises that per state, so the count is
the number of distinct reachable loop-head states summed over the 18
cells — a count that repeats exactly and is pinned with ``==``.
Re-walking shared states once per ingress, as the analysis used to,
made it 4 616.
"""

from __future__ import annotations

from repro.analysis.resilience import resilience_table
from repro.core.interpreter import Interpreter
from repro.routing import f10_model
from repro.topology import ab_fat_tree

SCHEMES = ["f10_0", "f10_3", "f10_3_5"]
BOUNDS = [0, 1, 2, 3, 4, None]

#: Loop-body evaluations over the whole table.
CERTAINTY_BODY_EVALS = 884
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


def test_figure11b_resilience_table():
    assert compute_table() == EXPECTED


def test_figure11b_body_evaluations(monkeypatch):
    """Count loop-body possibility evaluations over the table."""
    built, evaluated = [], []
    certain_outcomes = Interpreter.certain_outcomes

    def counting(self, policy, packet):
        if built and policy is built[-1].body:
            evaluated.append(packet)
        return certain_outcomes(self, policy, packet)

    monkeypatch.setattr(Interpreter, "certain_outcomes", counting)
    assert compute_table(built) == EXPECTED
    assert len(evaluated) == CERTAINTY_BODY_EVALS
