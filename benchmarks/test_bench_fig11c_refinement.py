"""Figure 11(c) — refinement relationships between the F10 schemes.

Regenerates the paper's refinement table: under k failures the simpler
scheme is strictly below the more resilient one exactly when the extra
rerouting logic starts to matter (k ≥ 1 for F10_0 vs F10_3, k ≥ 3 for
F10_3 vs F10_3,5, k ≥ 4 for F10_3,5 vs teleport).

A second pass decides the table exactly (``exact=True``, rational failure
probability), one cell at a time: each cell's seconds land in ``phases``,
and ``exact_largest_scc`` records the largest strongly connected component
the exact absorption solver had to eliminate densely — its cubic term.
Everything outside an SCC is a sparse substitution.  The same pass counts
the interpreter's work over the 15 cells: compiled bodies built
(``compiled_bodies``), packets run through them (``body_runs``) and the
per-switch runs their diagrams came from (``compile_roles`` templates
renamed into ``role_instances`` switches) — counts that repeat exactly.
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.analysis.resilience import refinement_table
from repro.core import equivalence, markov
from repro.routing import f10_model
from repro.topology import ab_fat_tree

from bench_utils import print_table, record

PAIRS = [("f10_0", "f10_3"), ("f10_3", "f10_3_5"), ("f10_3_5", "teleport")]
BOUNDS = [0, 1, 2, 3, 4]

EXPECTED = {
    ("f10_0", "f10_3"): {0: "≡", 1: "<", 2: "<", 3: "<", 4: "<"},
    ("f10_3", "f10_3_5"): {0: "≡", 1: "≡", 2: "≡", 3: "<", 4: "<"},
    ("f10_3_5", "teleport"): {0: "≡", 1: "≡", 2: "≡", 3: "≡", 4: "<"},
}


TITLE = "Figure 11(c) — refinement relationships under k failures"
HEADER = ["k"] + [f"{a} vs {b}" for a, b in PAIRS]


def compute_table(pairs=PAIRS, bounds=BOUNDS, probability=1 / 4, exact=False):
    topo = ab_fat_tree(4)

    def factory(scheme, k):
        return f10_model(topo, 1, scheme=scheme, failure_probability=probability, max_failures=k)

    return refinement_table(factory, pairs, bounds, exact=exact)


def rows_of(table):
    return [[bound] + [table[pair][bound] for pair in PAIRS] for bound in BOUNDS]


def test_figure11c_refinement_table(benchmark):
    table = benchmark.pedantic(compute_table, rounds=1, iterations=1)
    print_table(TITLE, HEADER, rows_of(table), fig="fig11c")
    assert table == EXPECTED


def test_figure11c_exact_cells(monkeypatch):
    """The exact table cell by cell: seconds per cell, largest dense solve."""
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
    table, phases = {pair: {} for pair in PAIRS}, {}
    for pair in PAIRS:
        for bound in BOUNDS:
            start = time.perf_counter()
            cell = compute_table([pair], [bound], Fraction(1, 4), exact=True)
            phases[f"exact_{pair[0]}_vs_{pair[1]}_k{bound}_s"] = time.perf_counter() - start
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
    print(f"\nlargest SCC over {len(sizes) - 1} exact solves: {max(sizes)} states")
    print("interpreter work over the table: " + ", ".join(f"{k} {v}" for k, v in work.items()))
    record(
        "fig11c",
        TITLE,
        HEADER,
        rows_of(table),
        phases=phases,
        metrics={"exact_largest_scc": max(sizes), **work},
    )
