"""E1 (§2 overview): delivery probabilities of the running example.

The paper's overview claims the naive scheme delivers 80% of traffic and
the fault-tolerant scheme 96% under independent 20% link failures, and
that the fault-tolerant scheme is 1-resilient.  This module regenerates
those numbers; ``examples/quickstart.py`` prints them.
"""

from __future__ import annotations

from repro.core import sugar
from repro.core.equivalence import output_equivalent
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP
from repro.network import running_example as ex


def _analyse():
    bundle = ex.build()
    teleport = sugar.locals_in([("up2", 1), ("up3", 1)], ex.teleport())
    interp = Interpreter(exact=True)

    def delivery(model):
        out = interp.run_packet(model, bundle.ingress_packet)
        return float(out.prob_of(lambda o: o is not DROP and o.get("sw") == 2))

    rows = []
    for failure in ("f0", "f1", "f2"):
        rows.append(
            [
                failure,
                f"{delivery(bundle.models_naive[failure]):.2f}",
                f"{delivery(bundle.models_resilient[failure]):.2f}",
                output_equivalent(
                    bundle.models_resilient[failure], teleport, [bundle.ingress_packet], exact=True
                ),
            ]
        )
    return rows


def test_running_example_delivery():
    rows = _analyse()
    assert rows[2][1] == "0.80"
    assert rows[2][2] == "0.96"
    # The resilient scheme is teleport under at most one failure, not two.
    assert [row[3] for row in rows] == [True, True, False]
