#!/usr/bin/env python3
"""The F10 data-center case study (§7): k-resilience and refinement tables.

Reproduces Figure 11(b) and 11(c) on a p=4 AB FatTree: the ECMP-style
``F10_0`` scheme is 0-resilient, adding 3-hop rerouting (``F10_3``) makes
it 2-resilient, and adding 5-hop rerouting (``F10_3,5``) makes it
3-resilient.  Then Figure 12(a): delivery under unbounded failures as
the per-link failure probability grows from 1/128 to 1/4, for the three
schemes on the AB FatTree and ``F10_3,5`` on a standard FatTree.

Run with::

    python examples/data_center_resilience.py [p]
"""

from __future__ import annotations

import sys
from fractions import Fraction

from repro.analysis.resilience import (
    format_refinement_table,
    format_resilience_table,
    refinement_table,
    resilience_table,
)
from repro.routing import f10_model
from repro.topology import ab_fat_tree, fat_tree

FAILURE_PROBABILITY = 1 / 4
SCHEMES = ["f10_0", "f10_3", "f10_3_5"]
#: Figure 12(a)'s x-axis: per-link failure probabilities 1/128 … 1/4.
SWEEP = [Fraction(1, 2**n) for n in (7, 6, 5, 4, 3, 2)]


def main(p: int = 4) -> None:
    topo = ab_fat_tree(p)
    dest = 1
    print(f"AB FatTree p={p}: {len(topo.switches())} switches, destination sw={dest}")
    print()

    def factory(scheme: str, k: int | None):
        return f10_model(
            topo, dest, scheme=scheme, failure_probability=FAILURE_PROBABILITY, max_failures=k
        )

    bounds = [0, 1, 2, 3, 4, None]
    print("Figure 11(b) — k-resilience (≡ teleport under at most k failures):")
    print(format_resilience_table(resilience_table(factory, SCHEMES, bounds)))
    print()

    pairs = [("f10_0", "f10_3"), ("f10_3", "f10_3_5"), ("f10_3_5", "teleport")]
    print("Figure 11(c) — refinement relationships:")
    print(format_refinement_table(refinement_table(factory, pairs, bounds)))
    print()

    print("Figure 12(a) — delivery probability vs link-failure probability (k = ∞):")
    print("pr".ljust(22) + "".join(f"{str(pr):>8s}" for pr in SWEEP))
    series = [(f"AB FatTree, {scheme}", topo, scheme) for scheme in SCHEMES]
    series.append(("FatTree, f10_3_5", fat_tree(p), "f10_3_5"))
    for label, topology, scheme in series:
        values = [
            f10_model(topology, dest, scheme=scheme, failure_probability=pr).delivery_probability()
            for pr in SWEEP
        ]
        print(label.ljust(22) + "".join(f"{value:8.4f}" for value in values))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
