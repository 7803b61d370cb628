"""Figures 9/10 — why general-purpose engines blow up on the chain of diamonds.

The paper compares McNetKAT with PRISM and Bayonet on the probability
that a packet crosses a chain of diamonds whose lower links fail with
probability 1/1000 (§6).  Its argument is structural: PRISM builds the
explicit state space of the translated program (§5.2), Bayonet infers
over the whole declared space and unrolls loops, while McNetKAT's loop
is one absorbing chain over the packet classes reachable from the
ingress.  This module reports that argument as counts, not seconds:
neither engine can be bundled here, and a time against a stand-in
written for this repo measures the stand-in, not the system.

For each number of diamonds ``d`` it pins (``examples/chain_comparison.py``
prints the table):

* ``P[deliver]`` — the native backend's answer, equal to the closed form
  ``(1 - p/2)^d`` within 1e-9 on the compiled-body and the AST-walking
  paths, which also agree on the whole output distribution;
* ``chain states`` — the states of the matrix backend plan's loop chain
  after the ingress query (its classes plus drop): ``5d + 1``;
* ``PRISM valuations`` — the valuations reachable in the translated
  program, explored by the explicit-state oracle
  (``tests/oracles.py::MiniDtmc``), whose exact answer is the closed
  form as a ``Fraction``: 50, 160, 563, 2 031 for d = 1, 2, 4, 8;
* ``dense space`` and ``unrollings`` — the Bayonet-style oracle's
  declared state space (every combination of field values, ``32d + 8``)
  and the loop iterations it unrolls before the mass left in the loop
  drops below its tolerance (``3d - 2``).  Both grow linearly on this
  acyclic chain; the work is their product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest

from repro.backends import MatrixBackend
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP
from repro.topology import chain_model

from oracles import ExactInferenceBaseline, MiniDtmc, prism_model

PFAIL = Fraction(1, 1000)
NATIVE_SIZES = [1, 2, 4, 8, 16]
PRISM_SIZES = [1, 2, 4, 8]
BASELINE_SIZES = [1, 2, 4, 8, 16]
#: Valuations reachable in the translated program.
PRISM_VALUATIONS = {1: 50, 2: 160, 4: 563, 8: 2031}

#: diamonds -> column -> value, filled by the tests below.
ROWS: dict[int, dict[str, object]] = {}


def expected_probability(diamonds: int) -> Fraction:
    return (1 - PFAIL / 2) ** diamonds


def delivered(diamonds: int):
    return lambda o: o is not DROP and o.get("sw") == 4 * diamonds


@cache
def interpreter(compile_bodies: bool) -> Interpreter:
    """One interpreter per path, its loop caches shared across the sizes."""
    return Interpreter(compile_bodies=compile_bodies)


def _probability(diamonds: int, compile_bodies: bool = True) -> float:
    chain = chain_model(diamonds, PFAIL)
    out = interpreter(compile_bodies).run_packet(chain.policy, chain.ingress)
    probability = float(out.prob_of(delivered(diamonds)))
    assert probability == pytest.approx(float(expected_probability(diamonds)), abs=1e-9)
    return probability


@pytest.mark.parametrize("diamonds", NATIVE_SIZES)
def test_native_backend(diamonds):
    probability = _probability(diamonds)
    ROWS.setdefault(diamonds, {})["P[deliver]"] = f"{probability:.6f}"


@pytest.mark.parametrize("diamonds", NATIVE_SIZES)
def test_interpreted_backend(diamonds):
    """The AST-interpreted loop path gives the same answer."""
    _probability(diamonds, compile_bodies=False)


def test_compiled_matches_interpreted_distributions():
    """Full output distributions of both native paths agree within 1e-9."""
    chain = chain_model(max(NATIVE_SIZES), PFAIL)
    fast = Interpreter().run_packet(chain.policy, chain.ingress)
    slow = Interpreter(compile_bodies=False).run_packet(chain.policy, chain.ingress)
    for outcome in set(fast.support()) | set(slow.support()):
        assert float(fast(outcome)) == pytest.approx(float(slow(outcome)), abs=1e-9)


@pytest.mark.parametrize("diamonds", NATIVE_SIZES)
def test_matrix_backend(diamonds):
    chain = chain_model(diamonds, PFAIL)
    backend = MatrixBackend()
    plan = backend.plan(chain.policy)
    out = backend.output_distribution(chain.policy, chain.ingress)
    states = sum(len(stage.chain) for stage in plan.loop_stages)
    ROWS.setdefault(diamonds, {})["chain states"] = states
    assert states == 5 * diamonds + 1
    assert float(out.prob_of(delivered(diamonds))) == pytest.approx(
        float(expected_probability(diamonds)), abs=1e-9
    )


@pytest.mark.parametrize("diamonds", PRISM_SIZES)
def test_prism_backend(diamonds):
    """The translated program's state space, solved exactly by the oracle."""
    chain = chain_model(diamonds, PFAIL)
    model, overrides = prism_model(chain.policy, chain.ingress, chain.delivered)
    engine = MiniDtmc(model)
    valuations = len(engine.explore(overrides))
    ROWS.setdefault(diamonds, {})["PRISM valuations"] = valuations
    assert valuations == PRISM_VALUATIONS[diamonds]
    probability = engine.probability(model.labels["delivered"], overrides)
    assert probability == expected_probability(diamonds)


@pytest.mark.parametrize("diamonds", BASELINE_SIZES)
def test_exact_inference_baseline(diamonds):
    chain = chain_model(diamonds, PFAIL)
    baseline = ExactInferenceBaseline()
    probability = baseline.delivery_probability(chain.policy, chain.ingress, chain.delivered)
    ROWS.setdefault(diamonds, {}).update(
        {"dense space": baseline.space, "unrollings": baseline.unrollings}
    )
    assert (baseline.space, baseline.unrollings) == (32 * diamonds + 8, 3 * diamonds - 2)
    assert probability == pytest.approx(float(expected_probability(diamonds)), abs=1e-9)


def test_report_figure10():
    """Every size the sweeps reach has its row; sizes a column skips show ``-``."""
    assert sorted(ROWS) == NATIVE_SIZES
    for diamonds, row in ROWS.items():
        assert row["chain states"] == 5 * diamonds + 1
        assert ("PRISM valuations" in row) == (diamonds in PRISM_SIZES)
        assert ("dense space" in row) == (diamonds in BASELINE_SIZES)
