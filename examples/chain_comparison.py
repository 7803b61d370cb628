#!/usr/bin/env python3
"""The chain topology of §6 (Figures 9 and 10), measured as state spaces.

A packet injected at H1 crosses a chain of diamonds whose lower links
fail with probability 1/1000; it reaches H2 with probability
``(1 - 1/2000)^d`` over ``d`` diamonds.  The paper's point is structural:
a general-purpose engine — PRISM on the translated program, Bayonet on
the whole declared space — grows with the product of the variables'
domains, while McNetKAT's loop chain holds only the packet classes
reachable from the ingress.  For each chain this prints the matrix
backend's answer, the states on its loop chain (classes plus drop), and
the size of the PRISM source the §5.2 translation emits for a reader
with PRISM to run.

Run with::

    python examples/chain_comparison.py
"""

from __future__ import annotations

from fractions import Fraction

from repro.backends import MatrixBackend
from repro.backends.prism import to_prism_source, translate_policy
from repro.core.packet import DROP
from repro.topology import chain_model

PFAIL = Fraction(1, 1000)
SIZES = [1, 2, 4, 8, 16]


def main() -> None:
    print(
        f"{'diamonds':>9s} {'switches':>9s} {'P[deliver]':>12s} "
        f"{'chain states':>13s} {'PRISM lines':>12s}"
    )
    for diamonds in SIZES:
        chain = chain_model(diamonds, PFAIL)
        backend = MatrixBackend()
        plan = backend.plan(chain.policy)
        out = backend.output_distribution(chain.policy, chain.ingress)
        probability = out.prob_of(lambda o: o is not DROP and o.get("sw") == 4 * diamonds)
        states = sum(len(stage.chain) for stage in plan.loop_stages)
        source = to_prism_source(translate_policy(chain.policy, delivered=chain.delivered))
        print(
            f"{diamonds:>9d} {4 * diamonds:>9d} {float(probability):>12.6f} "
            f"{states:>13d} {len(source.splitlines()):>12d}"
        )


if __name__ == "__main__":
    main()
