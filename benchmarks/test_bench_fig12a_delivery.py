"""Figure 12(a) — delivery probability versus link-failure probability.

Sweeps the per-link failure probability from 1/128 to 1/4 (unbounded
failures) and reports the delivery probability of the three F10 schemes
on the AB FatTree plus ``F10_3,5`` on a standard FatTree.  The expected
shape: ``F10_0`` degrades markedly as failures become common, the
rerouting schemes stay close to 1.  ``examples/data_center_resilience.py``
prints the sweep.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.routing import f10_model
from repro.topology import ab_fat_tree, fat_tree

PROBABILITIES = [Fraction(1, 128), Fraction(1, 64), Fraction(1, 32), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)]
SERIES = [
    ("AB FatTree, F10_0", "ab", "f10_0"),
    ("AB FatTree, F10_3", "ab", "f10_3"),
    ("AB FatTree, F10_3,5", "ab", "f10_3_5"),
    ("FatTree, F10_3,5", "ft", "f10_3_5"),
]

RESULTS: dict[str, list[float]] = {}


def sweep(topology, scheme):
    return [
        f10_model(topology, 1, scheme=scheme, failure_probability=pr).delivery_probability()
        for pr in PROBABILITIES
    ]


@pytest.mark.parametrize("label,topo_kind,scheme", SERIES, ids=[s[0] for s in SERIES])
def test_delivery_versus_failure_probability(label, topo_kind, scheme):
    topology = ab_fat_tree(4) if topo_kind == "ab" else fat_tree(4)
    values = sweep(topology, scheme)
    RESULTS[label] = values
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values, reverse=True)  # more failures, less delivery


def test_report_figure12a():
    """Shape checks from the paper: F10_0 dips well below the rerouting schemes."""
    assert list(RESULTS) == [label for label, _, _ in SERIES]
    assert RESULTS["AB FatTree, F10_0"][-1] < 0.85
    assert RESULTS["AB FatTree, F10_3,5"][-1] > 0.99
