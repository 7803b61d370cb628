#!/usr/bin/env python3
"""Quickstart: the running example of §2 of the McNetKAT paper.

Builds the three-switch network of Figure 1, verifies the qualitative
claims of the overview (equivalence with teleportation, 1-resilience of
the fault-tolerant scheme), and computes the quantitative delivery
probabilities (80% for the naive scheme, 96% for the resilient one under
independent 20% link failures).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.backends import MatrixBackend
from repro.core import pretty, sugar
from repro.core.equivalence import fdd_equivalent, output_equivalent, strictly_refines
from repro.core.interpreter import Interpreter
from repro.core.packet import DROP
from repro.network import running_example as ex


def delivery_probability(model, packet) -> float:
    out = Interpreter(exact=True).run_packet(model, packet)
    return float(out.prob_of(lambda o: o is not DROP and o.get("sw") == 2))


def main() -> None:
    bundle = ex.build()
    teleport = sugar.locals_in([("up2", 1), ("up3", 1)], ex.teleport())

    print("Forwarding scheme p:")
    print(" ", pretty(bundle.naive))
    print("Fault-tolerant scheme p̂ (switch 1 falls back to port 3):")
    print(" ", pretty(bundle.resilient))
    print()

    print("Equivalence checks (canonical FDDs):")
    print(
        "  M̂(p, t̂, f0) ≡ teleport:",
        fdd_equivalent(bundle.models_naive["f0"], teleport, exact=True),
    )
    print(
        "  M̂(p̂, t̂, f1) ≡ teleport (1-resilience):",
        fdd_equivalent(bundle.models_resilient["f1"], teleport, exact=True),
    )
    print(
        "  M̂(p, t̂, f1) ≡ teleport:",
        output_equivalent(
            bundle.models_naive["f1"], teleport, [bundle.ingress_packet], exact=True
        ),
    )
    print()

    print("Delivery probabilities under f2 (independent 20% link failures):")
    naive = delivery_probability(bundle.models_naive["f2"], bundle.ingress_packet)
    resilient = delivery_probability(bundle.models_resilient["f2"], bundle.ingress_packet)
    print(f"  naive scheme p : {naive:.2%}")
    print(f"  resilient p̂   : {resilient:.2%}")
    print(
        "  M̂(p, t̂, f2) < M̂(p̂, t̂, f2):",
        strictly_refines(
            bundle.models_naive["f2"],
            bundle.models_resilient["f2"],
            [bundle.ingress_packet],
            exact=True,
        ),
    )
    print()

    # The batched matrix backend answers the same query from one sparse
    # factorization — the scalable path for many-ingress models.
    backend = MatrixBackend()
    dist = backend.output_distribution(bundle.models_resilient["f2"], bundle.ingress_packet)
    via_matrix = float(dist.prob_of(lambda o: o is not DROP and o.get("sw") == 2))
    print("Same query via the batched matrix backend:")
    print(f"  resilient p̂   : {via_matrix:.2%}")
    print("  phase timings  :", {k: f"{v * 1000:.1f}ms" for k, v in backend.timings().items()})


if __name__ == "__main__":
    main()
