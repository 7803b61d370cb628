"""Figure 12(c) — expected hop count conditioned on delivery.

Sweeps the link-failure probability and reports the expected path length
of delivered traffic.  Expected shape: the rerouting schemes pay for
their resilience with longer paths as failures become more common, the
standard FatTree pays more than the AB FatTree, and ``F10_0``'s expected
hop count *decreases* (only short intra-pod paths survive).
``examples/path_stretch.py`` prints the table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest

from repro.analysis import expected_hop_count
from repro.backends import MatrixBackend
from repro.core.interpreter import Interpreter
from repro.routing import f10_model
from repro.topology import ab_fat_tree, fat_tree

PROBABILITIES = [Fraction(1, 128), Fraction(1, 32), Fraction(1, 8), Fraction(1, 4)]
SERIES = [
    ("AB FatTree, F10_0", "ab", "f10_0"),
    ("AB FatTree, F10_3", "ab", "f10_3"),
    ("AB FatTree, F10_3,5", "ab", "f10_3_5"),
    ("FatTree, F10_3,5", "ft", "f10_3_5"),
]

RESULTS: dict[str, list[float]] = {}


@cache
def shared_interpreter() -> Interpreter:
    """One interpreter across the figure's whole (scheme × pr) sweep."""
    return Interpreter()


def sweep(topology, scheme):
    values = []
    for pr in PROBABILITIES:
        model = f10_model(
            topology, 1, scheme=scheme, failure_probability=pr, count_hops=True, max_hops=14
        )
        values.append(expected_hop_count(model, interpreter=shared_interpreter()))
    return values


@pytest.mark.parametrize("label,topo_kind,scheme", SERIES, ids=[s[0] for s in SERIES])
def test_expected_hop_count_sweep(label, topo_kind, scheme):
    topology = ab_fat_tree(4) if topo_kind == "ab" else fat_tree(4)
    values = sweep(topology, scheme)
    RESULTS[label] = values
    assert all(2.0 <= v <= 10.0 for v in values)


def stretch_model():
    return f10_model(
        ab_fat_tree(4), 1, scheme="f10_3_5",
        failure_probability=PROBABILITIES[-1], count_hops=True, max_hops=14,
    )


def test_matrix_backend_agrees():
    """The matrix backend reproduces the conditioned expectation exactly."""
    model = stretch_model()
    native = expected_hop_count(model)
    assert expected_hop_count(model, backend=MatrixBackend()) == pytest.approx(native, abs=1e-9)


def test_compiled_body_agrees_with_interpreted():
    """Compiled-body and AST-interpreted loop paths agree within 1e-9."""
    model = stretch_model()
    interpreted = expected_hop_count(model, interpreter=Interpreter(compile_bodies=False))
    compiled = expected_hop_count(model, interpreter=Interpreter())
    assert compiled == pytest.approx(interpreted, abs=1e-9)


def test_report_figure12c():
    f10_0 = RESULTS["AB FatTree, F10_0"]
    assert f10_0[-1] < f10_0[0]  # shifts towards short intra-pod paths
    assert RESULTS["FatTree, F10_3,5"][-1] > RESULTS["AB FatTree, F10_3,5"][-1]
    assert RESULTS["AB FatTree, F10_3,5"][-1] > RESULTS["AB FatTree, F10_0"][-1]
