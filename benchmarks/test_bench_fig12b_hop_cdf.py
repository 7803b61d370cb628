"""Figure 12(b) — fraction of traffic delivered within a hop budget.

With the per-link failure probability fixed at 1/4, reports the CDF of
hop counts for the three F10 schemes on the AB FatTree and for
``F10_3,5`` on a standard FatTree.  Expected shape: all schemes deliver
the same ~79% of traffic within 4 hops; the rerouting schemes deliver
substantially more within 6 hops on the AB FatTree, while the standard
FatTree needs 8 hops for the same recovery (its detours are longer).
``examples/path_stretch.py`` prints the table.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.analysis import hop_count_cdf
from repro.backends import MatrixBackend
from repro.core.interpreter import Interpreter
from repro.routing import f10_model
from repro.topology import ab_fat_tree, fat_tree

FAILURE_PROBABILITY = 1 / 4
HOPS = [2, 4, 6, 8, 10, 12]
SERIES = [
    ("AB FatTree, F10_0", "ab", "f10_0"),
    ("AB FatTree, F10_3", "ab", "f10_3"),
    ("AB FatTree, F10_3,5", "ab", "f10_3_5"),
    ("FatTree, F10_3,5", "ft", "f10_3_5"),
]

RESULTS: dict[str, dict[int, float]] = {}


def build_model(topology, scheme):
    return f10_model(
        topology, 1, scheme=scheme, failure_probability=FAILURE_PROBABILITY,
        count_hops=True, max_hops=14,
    )


@cache
def shared_interpreter() -> Interpreter:
    """One interpreter across the figure: loop caches and compiled bodies
    persist over the scheme sweep."""
    return Interpreter()


def compute_cdf(topology, scheme):
    return hop_count_cdf(
        build_model(topology, scheme), max_hops=max(HOPS), interpreter=shared_interpreter()
    )


@pytest.mark.parametrize("label,topo_kind,scheme", SERIES, ids=[s[0] for s in SERIES])
def test_hop_count_cdf(label, topo_kind, scheme):
    topology = ab_fat_tree(4) if topo_kind == "ab" else fat_tree(4)
    cdf = compute_cdf(topology, scheme)
    RESULTS[label] = cdf
    values = [cdf[h] for h in sorted(cdf)]
    assert values == sorted(values)


def test_matrix_backend_batched_query():
    """One all-ingress hop-CDF query, answered three ways, agrees within 1e-9.

    Per-packet AST interpretation re-walks the loop body for every
    reachable state; the compiled-body native path evaluates compiled
    diagrams; the matrix backend compiles once, factorizes ``I - Q`` once
    and solves every ingress as one multi-RHS batch — cold, then warm.
    """
    model = build_model(ab_fat_tree(4), "f10_3_5")
    native_cdf = hop_count_cdf(
        model, max_hops=max(HOPS), interpreter=Interpreter(compile_bodies=False)
    )
    compiled_cdf = hop_count_cdf(model, max_hops=max(HOPS), interpreter=Interpreter())
    backend = MatrixBackend()
    matrix_cdf = hop_count_cdf(model, max_hops=max(HOPS), backend=backend)
    warm_cdf = hop_count_cdf(model, max_hops=max(HOPS), backend=backend)
    for h in range(0, max(HOPS) + 1):
        assert compiled_cdf[h] == pytest.approx(native_cdf[h], abs=1e-9)
        assert matrix_cdf[h] == pytest.approx(native_cdf[h], abs=1e-9)
        assert warm_cdf[h] == pytest.approx(native_cdf[h], abs=1e-9)


def test_report_figure12b():
    ab = RESULTS["AB FatTree, F10_3,5"]
    ft = RESULTS["FatTree, F10_3,5"]
    base = RESULTS["AB FatTree, F10_0"]
    assert ab[4] == pytest.approx(base[4], abs=1e-9)
    assert ab[6] > base[4]          # 3-hop detours recover traffic at 6 hops
    assert ft[6] == pytest.approx(ft[4], abs=1e-9)  # FatTree needs 8 hops instead
    assert ft[8] > ft[6]
