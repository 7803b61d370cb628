"""Figure 11(c) — refinement relationships between the F10 schemes.

Regenerates the paper's refinement table: under k failures the simpler
scheme is strictly below the more resilient one exactly when the extra
rerouting logic starts to matter (k ≥ 1 for F10_0 vs F10_3, k ≥ 3 for
F10_3 vs F10_3,5, k ≥ 4 for F10_3,5 vs teleport).

A second pass decides the table exactly (``exact=True``, rational failure
probability), one cell at a time, with a fresh model factory per cell.
``exact_largest_scc`` is the largest strongly connected component the
exact absorption solver had to eliminate densely — its cubic term.
Everything outside an SCC is a sparse substitution.  The same pass counts
the interpreter's work over the 15 cells: compiled bodies built
(``compiled_bodies``), packets run through them (``body_runs``) and the
per-switch runs their diagrams came from (``compile_roles`` templates
renamed into ``role_instances`` switches).  The counts repeat exactly
and are pinned with ``==``; a change that lowers one updates its pin.
``examples/data_center_resilience.py`` prints the table.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.resilience import refinement_table
from repro.core import equivalence, markov
from repro.routing import f10_model
from repro.topology import ab_fat_tree

PAIRS = [("f10_0", "f10_3"), ("f10_3", "f10_3_5"), ("f10_3_5", "teleport")]
BOUNDS = [0, 1, 2, 3, 4]

EXPECTED = {
    ("f10_0", "f10_3"): {0: "≡", 1: "<", 2: "<", 3: "<", 4: "<"},
    ("f10_3", "f10_3_5"): {0: "≡", 1: "≡", 2: "≡", 3: "<", 4: "<"},
    ("f10_3_5", "teleport"): {0: "≡", 1: "≡", 2: "≡", 3: "≡", 4: "<"},
}
#: The exact pass's work over the 15 cells.
EXACT_CELLS_WORK = {
    "compiled_bodies": 80,
    "body_runs": 3_978,
    "compile_roles": 339,
    "role_instances": 883,
    "exact_largest_scc": 1,
}


def compute_table(pairs=PAIRS, bounds=BOUNDS, probability=1 / 4, exact=False):
    topo = ab_fat_tree(4)

    def factory(scheme, k):
        return f10_model(topo, 1, scheme=scheme, failure_probability=probability, max_failures=k)

    return refinement_table(factory, pairs, bounds, exact=exact)


def test_figure11c_refinement_table():
    assert compute_table() == EXPECTED


def test_figure11c_exact_cells(monkeypatch):
    """The exact table cell by cell: its verdicts, and its work counted."""
    sizes = [0]
    sccs_sinks_first = markov._sccs_sinks_first

    def measuring(edges):
        components = sccs_sinks_first(edges)
        sizes.append(max(map(len, components), default=0))
        return components

    monkeypatch.setattr(markov, "_sccs_sinks_first", measuring)
    interpreters = []

    class Recorded(equivalence.Interpreter):
        def __init__(self, *args, **kwargs):
            interpreters.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(equivalence, "Interpreter", Recorded)
    table = {pair: {} for pair in PAIRS}
    for pair in PAIRS:
        for bound in BOUNDS:
            cell = compute_table([pair], [bound], Fraction(1, 4), exact=True)
            table[pair][bound] = cell[pair][bound]
    assert table == EXPECTED
    assert len(interpreters) == len(PAIRS) * len(BOUNDS)  # one per comparison
    work = {
        name: sum(interpreter.loop_stats()[name] for interpreter in interpreters)
        for name in ("compiled_bodies", "body_runs")
    }
    for name in ("compile_roles", "role_instances"):
        work[name] = sum(
            interpreter.body_compiler().manager.counters[name] for interpreter in interpreters
        )
    work["exact_largest_scc"] = max(sizes)
    assert work == EXACT_CELLS_WORK
