#!/usr/bin/env python3
"""Backend comparison on the chain topology (§6, Figures 9 and 10).

Computes the probability that a packet injected at H1 reaches H2 across a
chain of diamonds whose lower links fail with probability 1/1000, using
three engines of decreasing domain-specificity:

* the native backend (forward interpreter + sparse absorbing-chain solve),
* the PRISM backend (syntactic translation + bundled mini DTMC engine),
* the Bayonet-style exact-inference baseline (whole-state-space, bounded
  unrolling).

The native backend scales furthest, the baseline runs out of steam first —
the shape of Figure 10.

Run with::

    python examples/chain_comparison.py
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.backends.prism import PrismBackend
from repro.baselines import ExactInferenceBaseline
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP
from repro.topology import chain_model

PFAIL = Fraction(1, 1000)
SIZES = [1, 2, 4, 6]
BASELINE_LIMIT = 4  # the baseline becomes impractically slow beyond this


def native_probability(chain) -> float:
    out = Interpreter().run_packet(chain.policy, chain.ingress)
    return float(out.prob_of(lambda o: o is not DROP and o.get("sw") == 4 * chain.diamonds))


def main() -> None:
    print(f"{'diamonds':>9s} {'switches':>9s} {'engine':>10s} {'P[deliver]':>12s} {'time (s)':>10s}")
    for diamonds in SIZES:
        chain = chain_model(diamonds, PFAIL)
        engines = {"native": lambda c=chain: native_probability(c)}
        engines["prism"] = lambda c=chain: float(
            PrismBackend().probability(c.policy, c.ingress, c.delivered)
        )
        if diamonds <= BASELINE_LIMIT:
            engines["baseline"] = lambda c=chain: ExactInferenceBaseline(
                max_states=500_000
            ).delivery_probability(c.policy, c.ingress, c.delivered)
        for name, run in engines.items():
            start = time.perf_counter()
            probability = run()
            elapsed = time.perf_counter() - start
            print(
                f"{diamonds:>9d} {4 * diamonds:>9d} {name:>10s} "
                f"{probability:>12.6f} {elapsed:>10.3f}"
            )


if __name__ == "__main__":
    main()
